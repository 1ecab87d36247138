// Ablation — combined configure+reduce vs. separate passes (§III: "it is
// more efficient to do configuration and reduction concurrently with
// combined network messages" when in/out sets change every step).
//
// For a minibatch-style workload whose sets change every call, the
// combined mode removes the standalone downward value pass; for a fixed
// workload reused many times (PageRank), configuring once amortizes far
// better. Both effects are quantified.
#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace kylix;

TimingAccumulator::PhaseTimes run_combined(const bench::Dataset& data,
                                           const Topology& topo) {
  const NetworkModel net = bench::scaled_network();
  const ComputeModel compute;
  TimingAccumulator timing(topo.num_machines(), net, compute, 16);
  ParallelBspEngine<real_t> engine(topo.num_machines(), 1, nullptr, nullptr,
                                   &timing);
  SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
      &engine, topo, &compute);
  (void)allreduce.reduce_with_config(data.in_sets, data.out_sets,
                                     data.out_values);
  return timing.times();
}

}  // namespace

int main() {
  std::printf("# Ablation: combined vs separate configuration "
              "(twitter-like, 8 x 4 x 2)\n\n");
  const bench::Dataset data = bench::make_dataset("twitter");
  const Topology topo = data.paper_topology;

  const auto separate = bench::run_allreduce(data, topo, 16);
  const auto combined = run_combined(data, topo);

  std::printf("%-34s %-12s %-12s %-12s\n", "mode", "config_s", "reduce_s",
              "total_s");
  std::printf("%-34s %-12.4f %-12.4f %-12.4f\n",
              "separate (config + 2-pass reduce)", separate.config,
              separate.reduce(), separate.total());
  std::printf("%-34s %-12.4f %-12.4f %-12.4f\n",
              "combined (piggybacked values)", combined.config,
              combined.reduce(), combined.total());
  std::printf("\none-shot speedup from combining: %.2fx\n",
              separate.total() / combined.total());

  // Amortization: k reduces against one configure.
  std::printf("\n%-10s %-22s %-22s\n", "steps", "separate_total_s",
              "combined_total_s");
  for (int steps : {1, 2, 5, 10, 50}) {
    const double sep = separate.config + steps * separate.reduce();
    const double comb = steps * combined.total();
    std::printf("%-10d %-22.4f %-22.4f%s\n", steps, sep, comb,
                sep < comb ? "  <- configure-once wins" : "");
  }
  return 0;
}
