// Randomized end-to-end fuzzing of the sparse allreduce: arbitrary degree
// schedules, skewed and degenerate workloads, all reduction ops, both
// separate and combined modes — every run checked against the brute-force
// oracle. The mode-equivalence suite additionally pins the three execution
// paths to each other: reduce_with_config() == configure()+reduce() ==
// cached-plan replay, bit for bit, across iterations.
#include <gtest/gtest.h>

#include "comm/parallel.hpp"
#include "core/allreduce.hpp"
#include "core/plan_cache.hpp"
#include "powerlaw/zipf.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

std::vector<std::uint32_t> random_schedule(Rng& rng) {
  // 0-4 layers of degree 2-5: machine counts from 1 to 625.
  const std::uint64_t layers = rng.below(5);
  std::vector<std::uint32_t> degrees;
  for (std::uint64_t i = 0; i < layers; ++i) {
    degrees.push_back(static_cast<std::uint32_t>(2 + rng.below(4)));
  }
  return degrees;
}

class AllreduceFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllreduceFuzzTest, RandomTopologyAndWorkloadMatchesOracle) {
  Rng rng(mix64(GetParam()));
  const Topology topo(random_schedule(rng));
  const rank_t m = topo.num_machines();
  const auto features = 20 + rng.below(300);
  const double out_prob = 0.02 + rng.uniform() * 0.6;
  const double in_prob = 0.02 + rng.uniform() * 0.8;
  const auto w = testing::random_workload<float>(m, features, out_prob,
                                                 in_prob, rng());
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  if (rng.below(2) == 0) {
    allreduce.configure(w.in_sets, w.out_sets);
    testing::expect_matches_oracle<float>(w, allreduce.reduce(w.out_values));
  } else {
    testing::expect_matches_oracle<float>(
        w,
        allreduce.reduce_with_config(w.in_sets, w.out_sets, w.out_values));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllreduceFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 40));

class ModeEquivalenceFuzzTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModeEquivalenceFuzzTest, AllThreePathsAgreeBitForBitAcrossIterations) {
  // Per seed: random topology, then 4 iterations of changing values over
  // changing set sequences. Iterations alternate between two workloads, so
  // the cached-plan path sees misses (fresh sets) and real hits (repeats);
  // every iteration asserts reduce_with_config == configure+reduce ==
  // cached replay, element for element.
  Rng rng(mix64(GetParam() + 5000));
  const Topology topo(random_schedule(rng));
  const rank_t m = topo.num_machines();
  auto wa = testing::random_workload<float>(m, 20 + rng.below(200),
                                            0.05 + rng.uniform() * 0.5,
                                            0.05 + rng.uniform() * 0.7,
                                            rng());
  auto wb = testing::random_workload<float>(m, 20 + rng.below(200),
                                            0.05 + rng.uniform() * 0.5,
                                            0.05 + rng.uniform() * 0.7,
                                            rng());
  ParallelBspEngine<float> engine(m, 1);
  PlanCache cache(4);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> cached(&engine, topo);
  std::uint64_t expected_hits = 0;
  for (int iter = 0; iter < 4; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    auto& w = iter % 2 == 0 ? wa : wb;
    for (auto& values : w.out_values) {
      for (auto& v : values) v += static_cast<float>(iter);
    }

    SparseAllreduce<float, OpSum, ParallelBspEngine<float>> fresh(
        &engine, topo);
    fresh.configure(w.in_sets, w.out_sets);
    const auto separate = fresh.reduce(w.out_values);
    testing::expect_matches_oracle<float>(w, separate);

    SparseAllreduce<float, OpSum, ParallelBspEngine<float>> combined(
        &engine, topo);
    EXPECT_EQ(
        combined.reduce_with_config(w.in_sets, w.out_sets, w.out_values),
        separate);

    const bool hit = cached.configure_cached(cache, w.in_sets, w.out_sets);
    EXPECT_EQ(hit, iter >= 2) << "set sequence repeats with period 2";
    if (hit) ++expected_hits;
    EXPECT_EQ(cached.reduce(w.out_values), separate);
  }
  EXPECT_EQ(cache.hits(), expected_hits);
  EXPECT_EQ(cache.misses(), 4 - expected_hits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModeEquivalenceFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 25));

class ZipfWorkloadFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ZipfWorkloadFuzzTest, PowerLawSkewedSetsMatchOracle) {
  // Heavily skewed sets (the production workload shape): a hot head shared
  // by everyone, plus machine-specific tails.
  Rng rng(mix64(GetParam() + 1000));
  const Topology topo(random_schedule(rng));
  const rank_t m = topo.num_machines();
  const ZipfSampler zipf(5000, 0.8 + rng.uniform());

  testing::Workload<std::uint32_t> w;
  for (rank_t r = 0; r < m; ++r) {
    std::vector<index_t> ids;
    const std::uint64_t draws = 30 + rng.below(400);
    for (std::uint64_t d = 0; d < draws; ++d) {
      ids.push_back(zipf(rng) - 1);
    }
    w.out_sets.push_back(KeySet::from_indices(ids));
    std::vector<std::uint32_t> values;
    for (std::size_t p = 0; p < w.out_sets.back().size(); ++p) {
      values.push_back(static_cast<std::uint32_t>(rng.below(1000)));
    }
    w.out_values.push_back(std::move(values));
    // Request a prefix-biased subset of what this machine contributed.
    std::vector<index_t> wanted;
    for (index_t id : ids) {
      if (rng.below(3) != 0) wanted.push_back(id);
    }
    if (wanted.empty()) wanted.push_back(ids.front());
    w.in_sets.push_back(KeySet::from_indices(wanted));
  }

  ParallelBspEngine<std::uint32_t> engine(m, 1);
  SparseAllreduce<std::uint32_t, OpMin, ParallelBspEngine<std::uint32_t>>
      allreduce(&engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  testing::expect_matches_oracle<std::uint32_t, OpMin>(
      w, allreduce.reduce(w.out_values));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZipfWorkloadFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace kylix
