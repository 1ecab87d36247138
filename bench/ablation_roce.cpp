// Ablation / future-work projection (§IX): what RDMA over Converged
// Ethernet would buy.
//
// The paper measures ~3 Gb/s of the rated 10 Gb/s through Java sockets and
// names RoCE as the fix ("bypasses copies in several layers of the TCP/IP
// stack"). This bench replays the same twitter-like allreduce under the
// socket-calibrated model and a RoCE-like model (full link rate, >10x lower
// per-message costs), for each topology — also showing that cheaper messages
// shift the optimal schedule toward direct all-to-all, exactly what the §IV
// workflow predicts when the packet floor drops.
#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace kylix;

TimingAccumulator::PhaseTimes run_with_net(const bench::Dataset& data,
                                           const Topology& topo,
                                           const NetworkModel& net) {
  const ComputeModel compute;
  TimingAccumulator timing(topo.num_machines(), net, compute, 16);
  ParallelBspEngine<real_t> engine(topo.num_machines(), 1, nullptr, nullptr,
                                   &timing);
  SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
      &engine, topo, &compute);
  allreduce.configure(data.in_sets, data.out_sets);
  (void)allreduce.reduce(data.out_values);
  return timing.times();
}

}  // namespace

int main() {
  std::printf("# Ablation (SIX future work): sockets vs RoCE-class "
              "transport (twitter-like, m = 64)\n\n");
  const bench::Dataset data = bench::make_dataset("twitter");
  const NetworkModel sockets = bench::scaled_network();
  NetworkModel roce = NetworkModel::roce_like();
  // Scale RoCE's per-message costs by the same factor as the socket model
  // so the two columns compare like for like on the scaled dataset.
  roce.stack_overhead_s = sockets.stack_overhead_s / 10;
  roce.handshake_latency_s = sockets.handshake_latency_s / 10;
  roce.base_latency_s = sockets.base_latency_s / 4;

  std::printf("%-22s %-14s %-14s %-10s\n", "topology", "sockets_total_s",
              "roce_total_s", "gain");
  for (const auto& [label, topo] :
       std::vector<std::pair<const char*, Topology>>{
           {"direct all-to-all", Topology::direct(64)},
           {"optimal butterfly", data.paper_topology},
           {"binary butterfly", Topology::binary(64)}}) {
    const double socket_t = run_with_net(data, topo, sockets).total();
    const double roce_t = run_with_net(data, topo, roce).total();
    std::printf("%-22s %-14.4f %-14.4f %-10.2fx\n", label, socket_t,
                roce_t, socket_t / roce_t);
  }

  std::printf("\nretuned schedule under RoCE (floor %s vs %s): ",
              format_bytes(roce.min_efficient_packet(0.5)).c_str(),
              format_bytes(sockets.min_efficient_packet(0.5)).c_str());
  AutotuneInput input;
  input.num_features = data.spec.num_vertices;
  input.num_machines = 64;
  input.alpha = data.spec.alpha_in;
  input.partition_density = data.measured_density;
  input.network = roce;
  input.target_utilization = bench::kPacketFloorUtil;
  std::printf("%s\n", Topology(autotune(input).degrees).to_string().c_str());
  return 0;
}
