#include "apps/components.hpp"

#include <gtest/gtest.h>

#include <map>

#include "apps/reference.hpp"
#include "comm/parallel.hpp"
#include "powerlaw/graphgen.hpp"

namespace kylix {
namespace {

using Engine = ParallelBspEngine<std::uint64_t>;

void expect_matches_reference(
    const DistributedComponents<Engine>::Result& result,
    std::span<const Edge> edges, std::uint64_t num_vertices) {
  const auto reference = reference_components(edges, num_vertices);
  std::size_t checked = 0;
  for (std::size_t r = 0; r < result.vertex_sets.size(); ++r) {
    const auto ids = result.vertex_sets[r].to_indices();
    for (std::size_t p = 0; p < ids.size(); ++p) {
      EXPECT_EQ(result.labels[r][p], reference[ids[p]])
          << "vertex " << ids[p] << " machine " << r;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(DistributedComponents, TwoTrianglesAndAnEdge) {
  // {0,1,2} and {3,4,5} triangles joined 2-3, plus isolated pair {7,8}.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {3, 4},
                                   {4, 5}, {5, 3}, {2, 3}, {7, 8}};
  const Topology topo({2});
  Engine engine(2, 1);
  const auto parts = random_edge_partition(edges, 2, 5);
  DistributedComponents<Engine> cc(&engine, topo, parts);
  const auto result = cc.run();
  expect_matches_reference(result, edges, 9);
}

class ComponentsTopologyTest
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(ComponentsTopologyTest, MatchesUnionFindOnRandomGraphs) {
  const Topology topo(GetParam());
  const rank_t m = topo.num_machines();
  GraphSpec spec;
  spec.num_vertices = 2000;
  spec.num_edges = 4000;  // sparse: many components
  spec.alpha_out = 1.0;
  spec.alpha_in = 1.0;
  spec.seed = 200 + m;
  const auto edges = generate_zipf_graph(spec);
  const auto parts = random_edge_partition(edges, m, spec.seed);
  Engine engine(m, 1);
  DistributedComponents<Engine> cc(&engine, topo, parts);
  const auto result = cc.run(256);
  EXPECT_GT(result.iterations, 0u);
  expect_matches_reference(result, edges, spec.num_vertices);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ComponentsTopologyTest,
    ::testing::Values(std::vector<std::uint32_t>{},
                      std::vector<std::uint32_t>{4},
                      std::vector<std::uint32_t>{2, 2},
                      std::vector<std::uint32_t>{3, 2}));

TEST(DistributedComponents, PathGraphNeedsManyIterations) {
  // A long path propagates the minimum one hop per round (doubling via
  // symmetric propagation): iterations grow with the path length.
  std::vector<Edge> path;
  for (index_t v = 0; v + 1 < 64; ++v) path.push_back(Edge{v, v + 1});
  const Topology topo({2, 2});
  Engine engine(4, 1);
  const auto parts = random_edge_partition(path, 4, 6);
  DistributedComponents<Engine> cc(&engine, topo, parts);
  const auto result = cc.run(256);
  EXPECT_GT(result.iterations, 5u);
  expect_matches_reference(result, path, 64);
}

TEST(DistributedComponents, ReplicatedVerticesAgreeAcrossMachines) {
  GraphSpec spec;
  spec.num_vertices = 500;
  spec.num_edges = 3000;
  spec.seed = 77;
  const auto edges = generate_zipf_graph(spec);
  const Topology topo({2, 2});
  Engine engine(4, 1);
  const auto parts = random_edge_partition(edges, 4, 7);
  DistributedComponents<Engine> cc(&engine, topo, parts);
  const auto result = cc.run();
  std::map<index_t, std::uint64_t> seen;
  for (std::size_t r = 0; r < 4; ++r) {
    const auto ids = result.vertex_sets[r].to_indices();
    for (std::size_t p = 0; p < ids.size(); ++p) {
      const auto [it, inserted] = seen.emplace(ids[p], result.labels[r][p]);
      EXPECT_EQ(it->second, result.labels[r][p]) << "vertex " << ids[p];
    }
  }
}

}  // namespace
}  // namespace kylix
