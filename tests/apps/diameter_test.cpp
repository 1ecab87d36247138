#include "apps/diameter.hpp"

#include <gtest/gtest.h>

#include "comm/parallel.hpp"
#include "powerlaw/graphgen.hpp"

namespace kylix {
namespace {

using Engine = ParallelBspEngine<std::uint64_t>;

TEST(DistributedDiameter, NeighborhoodFunctionIsNonDecreasing) {
  GraphSpec spec;
  spec.num_vertices = 1000;
  spec.num_edges = 3000;
  spec.seed = 71;
  const auto edges = generate_zipf_graph(spec);
  const Topology topo({2, 2});
  Engine engine(4, 1);
  const auto parts = random_edge_partition(edges, 4, 72);
  DistributedDiameter<Engine> diameter(&engine, topo, parts);
  const auto result = diameter.run(32, 4, 73);
  ASSERT_FALSE(result.neighborhood.empty());
  for (std::size_t h = 1; h < result.neighborhood.size(); ++h) {
    EXPECT_GE(result.neighborhood[h], result.neighborhood[h - 1] * 0.999);
  }
}

TEST(DistributedDiameter, PathGraphHasLargeDiameter) {
  std::vector<Edge> path;
  constexpr index_t kLength = 48;
  for (index_t v = 0; v + 1 < kLength; ++v) path.push_back(Edge{v, v + 1});
  const Topology topo({2});
  Engine engine(2, 1);
  const auto parts = random_edge_partition(path, 2, 74);
  DistributedDiameter<Engine> diameter(&engine, topo, parts);
  const auto result = diameter.run(64, 2, 75);
  // Sketches spread one hop per round; a path needs many rounds.
  EXPECT_GT(result.diameter, kLength / 4);
}

TEST(DistributedDiameter, StarGraphSaturatesInTwoHops) {
  std::vector<Edge> star;
  for (index_t v = 1; v < 200; ++v) star.push_back(Edge{0, v});
  const Topology topo({2, 2});
  Engine engine(4, 1);
  const auto parts = random_edge_partition(star, 4, 76);
  DistributedDiameter<Engine> diameter(&engine, topo, parts);
  const auto result = diameter.run(32, 4, 77);
  EXPECT_LE(result.diameter, 4u);
}

TEST(DistributedDiameter, EstimateIsInTheRightBallpark) {
  // After saturation the neighborhood function approximates sum over
  // vertices of |component| = n^2 for a connected graph; the FM estimator
  // with 64 single-bit sketches is noisy, so accept a wide band.
  std::vector<Edge> clique;
  constexpr index_t kN = 64;
  for (index_t a = 0; a < kN; ++a) {
    for (index_t b = a + 1; b < kN; ++b) clique.push_back(Edge{a, b});
  }
  const Topology topo({2});
  Engine engine(2, 1);
  const auto parts = random_edge_partition(clique, 2, 78);
  DistributedDiameter<Engine> diameter(&engine, topo, parts);
  const auto result = diameter.run(8, 8, 79);
  const double final_estimate = result.neighborhood.back();
  EXPECT_GT(final_estimate, kN * kN / 4.0);
  EXPECT_LT(final_estimate, kN * kN * 4.0);
}

TEST(DistributedDiameter, DeterministicInSeed) {
  const auto edges = generate_rmat(9, 3000, 80);
  const Topology topo({2, 2});
  const auto parts = random_edge_partition(edges, 4, 81);
  std::vector<double> first;
  {
    Engine engine(4, 1);
    DistributedDiameter<Engine> d(&engine, topo, parts);
    first = d.run(16, 2, 82).neighborhood;
  }
  std::vector<double> second;
  {
    Engine engine(4, 1);
    DistributedDiameter<Engine> d(&engine, topo, parts);
    second = d.run(16, 2, 82).neighborhood;
  }
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace kylix
