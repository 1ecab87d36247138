// Figure 9 — PageRank compute/communication breakdown and speedup vs.
// cluster size (4 … 64 machines), both datasets.
//
// Paper result: roughly linear scaling with 7-11x speedup at 64 nodes over
// the 4-node baseline (ideal 16x), with communication dominating beyond 32
// nodes (75-90% of iteration time at 64). Butterfly degrees are re-tuned
// per cluster size by the §IV workflow, as in the paper.
#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace kylix;

void run(const std::string& which) {
  std::printf("\n== %s ==\n", which.c_str());
  std::printf("%-10s %-14s %-12s %-12s %-10s %-10s\n", "machines",
              "degrees", "compute_s", "comm_s", "total_s", "speedup");
  double base_total = 0;
  for (rank_t m : {4u, 8u, 16u, 32u, 64u}) {
    const bench::Dataset data = bench::make_dataset(which, m);
    const Topology topo(bench::tune(data.spec.num_vertices,
                                    data.spec.alpha_in,
                                    data.measured_density, m)
                            .degrees);

    const NetworkModel net = bench::scaled_network();
    const ComputeModel compute;
    TimingAccumulator timing(m, net, compute, 16);
    ParallelBspEngine<real_t> engine(m, 1, nullptr, nullptr, &timing);
    DistributedPageRank<ParallelBspEngine<real_t>> pagerank(
        &engine, topo, data.partitions, data.spec.num_vertices, &compute,
        &timing);
    DistributedPageRank<ParallelBspEngine<real_t>>::Options options;
    options.iterations = 3;
    const auto result = pagerank.run(options);

    const double compute_s = result.mean_compute_s();
    const double comm_s = result.mean_comm_s();
    const double total = compute_s + comm_s;
    if (m == 4) base_total = total;
    std::printf("%-10u %-14s %-12.4f %-12.4f %-10.4f %-10.2fx\n", m,
                topo.to_string().c_str(), compute_s, comm_s, total,
                base_total / total);
  }
  std::printf("(paper: 7-11x speedup at 64 nodes, comm takes 75-90%% of "
              "the iteration there)\n");
}

}  // namespace

int main() {
  std::printf("# Figure 9: compute/comm breakdown and speedup vs cluster "
              "size\n");
  run("twitter");
  run("yahoo");
  return 0;
}
