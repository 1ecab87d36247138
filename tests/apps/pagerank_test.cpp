#include "apps/pagerank.hpp"

#include <gtest/gtest.h>

#include <map>

#include "apps/reference.hpp"
#include "comm/parallel.hpp"
#include "powerlaw/graphgen.hpp"

namespace kylix {
namespace {

using Engine = ParallelBspEngine<real_t>;

/// Compare the distributed ranks against the single-node reference for
/// every vertex any machine tracks.
void expect_matches_reference(
    const DistributedPageRank<Engine>& pagerank, rank_t machines,
    const std::vector<double>& reference, double tolerance) {
  std::size_t checked = 0;
  for (rank_t r = 0; r < machines; ++r) {
    const auto ids = pagerank.machine_sources(r).to_indices();
    const auto values = pagerank.machine_values(r);
    ASSERT_EQ(ids.size(), values.size());
    for (std::size_t p = 0; p < ids.size(); ++p) {
      ASSERT_LT(ids[p], reference.size());
      EXPECT_NEAR(values[p], reference[ids[p]],
                  tolerance * reference[ids[p]] + 1e-9)
          << "vertex " << ids[p] << " on machine " << r;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

class PageRankTopologyTest
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(PageRankTopologyTest, MatchesSingleNodeReference) {
  const Topology topo(GetParam());
  const rank_t m = topo.num_machines();
  GraphSpec spec;
  spec.num_vertices = 3000;
  spec.num_edges = 30000;
  spec.alpha_out = 1.2;
  spec.alpha_in = 1.1;
  spec.seed = 100 + m;
  const auto edges = generate_zipf_graph(spec);
  const auto parts = random_edge_partition(edges, m, spec.seed);

  Engine engine(m, 1);
  DistributedPageRank<Engine> pagerank(&engine, topo, parts,
                                       spec.num_vertices);
  DistributedPageRank<Engine>::Options options;
  options.iterations = 8;
  const auto result = pagerank.run(options);
  EXPECT_EQ(result.iterations.size(), 8u);

  const auto reference =
      reference_pagerank(edges, spec.num_vertices, 8, options.damping);
  expect_matches_reference(pagerank, m, reference, 2e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, PageRankTopologyTest,
    ::testing::Values(std::vector<std::uint32_t>{},      // single machine
                      std::vector<std::uint32_t>{4},     // direct
                      std::vector<std::uint32_t>{4, 2},  // kylix shape
                      std::vector<std::uint32_t>{2, 2, 2}));

TEST(PageRank, SecondRunAdoptsCachedPlanAndMatchesBitForBit) {
  // Same partitions => same {in, out} fingerprint: run 1 compiles and
  // inserts, run 2 adopts the plan (skipping configuration) and must
  // produce identical ranks to a cache-less run.
  const Topology topo({4, 2});
  const auto edges = generate_rmat(10, 12000, 61);
  const auto parts = random_edge_partition(edges, 8, 62);
  PlanCache cache(4);

  Engine plain_engine(8, 1);
  DistributedPageRank<Engine> plain(&plain_engine, topo, parts, 1u << 10);
  (void)plain.run({.damping = 0.85, .iterations = 5});

  Engine miss_engine(8, 1);
  DistributedPageRank<Engine> first(&miss_engine, topo, parts, 1u << 10,
                                    nullptr, nullptr, &cache);
  EXPECT_FALSE(first.plan_cache_hit());
  (void)first.run({.damping = 0.85, .iterations = 5});
  EXPECT_EQ(cache.size(), 1u);

  Engine hit_engine(8, 1);
  DistributedPageRank<Engine> second(&hit_engine, topo, parts, 1u << 10,
                                     nullptr, nullptr, &cache);
  EXPECT_TRUE(second.plan_cache_hit());
  (void)second.run({.damping = 0.85, .iterations = 5});
  for (rank_t r = 0; r < 8; ++r) {
    const auto expected = plain.machine_values(r);
    const auto cached = second.machine_values(r);
    ASSERT_EQ(cached.size(), expected.size());
    for (std::size_t p = 0; p < expected.size(); ++p) {
      EXPECT_EQ(cached[p], expected[p]) << "machine " << r << " pos " << p;
    }
  }
}

TEST(PageRank, ResidualShrinksAcrossIterations) {
  const Topology topo({4, 2});
  const auto edges = generate_rmat(11, 20000, 55);
  const auto parts = random_edge_partition(edges, 8, 56);
  Engine engine(8, 1);
  DistributedPageRank<Engine> pagerank(&engine, topo, parts, 1u << 11);
  DistributedPageRank<Engine>::Options options;
  options.iterations = 10;
  const auto result = pagerank.run(options);
  EXPECT_LT(result.iterations.back().residual,
            result.iterations.front().residual / 4);
}

TEST(PageRank, TimingIsPopulatedWhenModelsAttached) {
  const Topology topo({2, 2});
  const auto edges = generate_rmat(10, 8000, 57);
  const auto parts = random_edge_partition(edges, 4, 58);
  const NetworkModel net = NetworkModel::ec2_like();
  const ComputeModel compute;
  TimingAccumulator timing(4, net, compute, 16);
  Engine engine(4, 1, nullptr, nullptr, &timing);
  DistributedPageRank<Engine> pagerank(&engine, topo, parts, 1u << 10,
                                       &compute, &timing);
  const auto result = pagerank.run({.damping = 0.85, .iterations = 3});
  EXPECT_GT(result.setup_times.total(), 0.0);
  for (const auto& iter : result.iterations) {
    EXPECT_GT(iter.comm_s, 0.0);
    EXPECT_GT(iter.compute_s, 0.0);
  }
}

TEST(PageRank, RanksSumToAtMostOne) {
  // Without dangling redistribution the total mass is <= 1 and > damping
  // complement; per-vertex ranks must be positive.
  const Topology topo({4});
  GraphSpec spec;
  spec.num_vertices = 500;
  spec.num_edges = 5000;
  spec.seed = 59;
  const auto edges = generate_zipf_graph(spec);
  const auto parts = random_edge_partition(edges, 4, 60);
  Engine engine(4, 1);
  DistributedPageRank<Engine> pagerank(&engine, topo, parts,
                                       spec.num_vertices);
  (void)pagerank.run({.damping = 0.85, .iterations = 6});
  // Collect each vertex once (machines overlap).
  std::map<index_t, real_t> ranks;
  for (rank_t r = 0; r < 4; ++r) {
    const auto ids = pagerank.machine_sources(r).to_indices();
    const auto values = pagerank.machine_values(r);
    for (std::size_t p = 0; p < ids.size(); ++p) {
      ranks[ids[p]] = values[p];
      EXPECT_GT(values[p], 0.0f);
    }
  }
  double total = 0;
  for (const auto& [id, value] : ranks) total += value;
  EXPECT_LE(total, 1.0 + 1e-3);
}

}  // namespace
}  // namespace kylix
