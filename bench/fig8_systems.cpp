// Figure 8 — PageRank runtime per iteration: Kylix vs. PowerGraph vs.
// Hadoop/Pegasus, both datasets, 64 machines (log-scale plot in the paper).
//
// Paper result: Kylix ~0.55 s (Twitter) / ~2.5 s (Yahoo) per iteration,
// 3-7x faster than PowerGraph and ~500x faster than Hadoop. Stand-ins here
// (DESIGN.md §2):
//   * Kylix        — our distributed PageRank over the optimal butterfly.
//   * PowerGraph   — the same PageRank over direct all-to-all (PowerGraph's
//                    GAS engine gathers/scatters every vertex through home
//                    nodes, i.e. the direct regime; random edge partition,
//                    as benchmarked by the paper).
//   * Hadoop       — the analytic disk-and-job-overhead model at the scaled
//                    edge count.
#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace kylix;

double pagerank_iteration_time(const bench::Dataset& data,
                               const Topology& topo) {
  const NetworkModel net = bench::scaled_network();
  const ComputeModel compute;
  TimingAccumulator timing(topo.num_machines(), net, compute, 16);
  ParallelBspEngine<real_t> engine(topo.num_machines(), 1, nullptr, nullptr,
                                   &timing);
  DistributedPageRank<ParallelBspEngine<real_t>> pagerank(
      &engine, topo, data.partitions, data.spec.num_vertices, &compute,
      &timing);
  DistributedPageRank<ParallelBspEngine<real_t>>::Options options;
  options.iterations = 3;
  const auto result = pagerank.run(options);
  return result.mean_iteration_s();
}

void run(const bench::Dataset& data) {
  std::printf("\n== %s: PageRank seconds per iteration (m = 64) ==\n",
              data.name.c_str());
  const double kylix_t = pagerank_iteration_time(data, data.paper_topology);
  const double powergraph_t =
      pagerank_iteration_time(data, Topology::direct(64));
  HadoopModel hadoop;
  // Scale the MapReduce job overhead by the same factor as the network
  // model's per-message costs (bench_common.hpp), so all three systems run
  // on the same scaled testbed.
  hadoop.job_overhead_s *= bench::scaled_network().message_overhead_s() /
                           NetworkModel::ec2_like().message_overhead_s();
  const double hadoop_t = hadoop.iteration_time(data.spec.num_edges, 64);

  std::printf("%-24s %-14s %-10s\n", "system", "sec/iter", "vs kylix");
  std::printf("%-24s %-14.4f %-10s\n", "kylix (tuned butterfly)", kylix_t,
              "1.0x");
  std::printf("%-24s %-14.4f %-10.1fx\n", "powergraph-like (direct)",
              powergraph_t, powergraph_t / kylix_t);
  std::printf("%-24s %-14.1f %-10.0fx\n", "hadoop/pegasus (model)",
              hadoop_t, hadoop_t / kylix_t);
  std::printf("(paper: direct/powergraph 3-7x, hadoop ~500x)\n");
}

}  // namespace

int main() {
  std::printf("# Figure 8: per-iteration PageRank runtime by system\n");
  run(bench::make_dataset("twitter"));
  run(bench::make_dataset("yahoo"));
  return 0;
}
