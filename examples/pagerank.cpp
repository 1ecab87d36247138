// PageRank over Kylix — the paper's flagship workload (§I-A.2, Fig. 8/9).
//
// Generates a twitter-like power-law graph, random-edge-partitions it over
// 16 simulated machines, runs the §IV design workflow to pick butterfly
// degrees, executes distributed PageRank, and cross-checks the result
// against the single-node reference implementation.
#include <cstdio>

#include "kylix.hpp"

int main() {
  using namespace kylix;

  constexpr rank_t kMachines = 16;
  GraphSpec spec = twitter_like(1u << 16);
  spec.num_edges /= 4;  // lighter example-sized workload
  std::printf("generating %s graph: %llu vertices, %llu edges...\n",
              spec.name,
              static_cast<unsigned long long>(spec.num_vertices),
              static_cast<unsigned long long>(spec.num_edges));
  const auto edges = generate_zipf_graph(spec);
  const auto parts = random_edge_partition(edges, kMachines, 99);

  // Design workflow: measure the partition density, pick degrees.
  const double density = measure_partition_density(parts, spec.num_vertices);
  AutotuneInput tune;
  tune.num_features = spec.num_vertices;
  tune.num_machines = kMachines;
  tune.alpha = spec.alpha_in;
  tune.partition_density = density;
  tune.network.set_message_overhead(4e-5);  // scaled testbed
  tune.target_utilization = 0.5;
  const DesignResult design = autotune(tune);
  std::printf("measured partition density %.3f\n%s", density,
              design.to_string().c_str());

  const Topology topo(design.degrees);
  const ComputeModel compute;
  TimingAccumulator timing(kMachines, tune.network, compute, 16);
  ParallelBspEngine<real_t> engine(kMachines, 1, nullptr, nullptr, &timing);
  DistributedPageRank<ParallelBspEngine<real_t>> pagerank(
      &engine, topo, parts, spec.num_vertices, &compute, &timing);

  DistributedPageRank<ParallelBspEngine<real_t>>::Options options;
  options.iterations = 10;
  const auto result = pagerank.run(options);

  std::printf("\nsetup (degree allreduce + configuration): %s modeled\n",
              format_seconds(result.setup_times.total()).c_str());
  std::printf("%-6s %-14s %-14s %-12s\n", "iter", "comm(model)",
              "compute(model)", "residual");
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const auto& it = result.iterations[i];
    std::printf("%-6zu %-14s %-14s %-12.3g\n", i + 1,
                format_seconds(it.comm_s).c_str(),
                format_seconds(it.compute_s).c_str(), it.residual);
  }

  // Verify against the single-node reference.
  const auto reference =
      reference_pagerank(edges, spec.num_vertices, options.iterations,
                         options.damping);
  double worst_rel = 0;
  for (rank_t r = 0; r < kMachines; ++r) {
    const auto ids = pagerank.machine_sources(r).to_indices();
    const auto values = pagerank.machine_values(r);
    for (std::size_t p = 0; p < ids.size(); ++p) {
      const double rel =
          std::abs(values[p] - reference[ids[p]]) / reference[ids[p]];
      worst_rel = std::max(worst_rel, rel);
    }
  }
  std::printf("\nworst relative error vs single-node reference: %.2e %s\n",
              worst_rel, worst_rel < 1e-2 ? "(PASS)" : "(FAIL)");
  return worst_rel < 1e-2 ? 0 : 1;
}
