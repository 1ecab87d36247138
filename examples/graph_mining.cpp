// Graph mining over Kylix — connected components (min-allreduce) and
// effective-diameter estimation (bit-or allreduce with Flajolet–Martin
// sketches), the remaining §I-A.2 applications.
#include <cstdio>

#include <map>

#include "kylix.hpp"

int main() {
  using namespace kylix;

  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();

  // An R-MAT graph: one giant component plus fringe singletons.
  const std::uint32_t scale = 14;
  const auto edges = generate_rmat(scale, 120000, 2014);
  const auto parts = random_edge_partition(edges, m, 7);
  std::printf("R-MAT graph: 2^%u vertex ids, %zu edges, %u machines "
              "(topology %s)\n\n",
              scale, edges.size(), m, topo.to_string().c_str());

  // --- Connected components via min label propagation ---
  ParallelBspEngine<std::uint64_t> engine(m, 1);
  DistributedComponents<ParallelBspEngine<std::uint64_t>> cc(
      &engine, topo, parts);
  const auto cc_result = cc.run(256);

  std::map<std::uint64_t, std::size_t> component_sizes;
  std::map<index_t, std::uint64_t> label_of;
  for (std::size_t r = 0; r < cc_result.vertex_sets.size(); ++r) {
    const auto ids = cc_result.vertex_sets[r].to_indices();
    for (std::size_t p = 0; p < ids.size(); ++p) {
      label_of[ids[p]] = cc_result.labels[r][p];
    }
  }
  for (const auto& [id, label] : label_of) ++component_sizes[label];
  std::size_t largest = 0;
  for (const auto& [label, size] : component_sizes) {
    largest = std::max(largest, size);
  }
  std::printf("connected components: %zu non-isolated vertices, %zu "
              "components, largest %zu, converged in %u rounds\n",
              label_of.size(), component_sizes.size(), largest,
              cc_result.iterations);

  // Cross-check against the union-find reference.
  const auto reference = reference_components(edges, 1u << scale);
  std::size_t mismatches = 0;
  for (const auto& [id, label] : label_of) {
    if (reference[id] != label) ++mismatches;
  }
  std::printf("verification vs union-find reference: %zu mismatches (%s)\n\n",
              mismatches, mismatches == 0 ? "PASS" : "FAIL");

  // --- Effective diameter via FM sketches ---
  DistributedDiameter<ParallelBspEngine<std::uint64_t>> diameter(
      &engine, topo, parts);
  const auto d_result = diameter.run(32, 6, 2015);
  std::printf("diameter estimation: neighborhood function N(h)\n");
  for (std::size_t h = 0; h < d_result.neighborhood.size(); ++h) {
    std::printf("  h = %2zu: N = %.3g\n", h + 1, d_result.neighborhood[h]);
  }
  std::printf("effective diameter estimate: ~%u hops\n", d_result.diameter);
  return mismatches == 0 ? 0 : 1;
}
