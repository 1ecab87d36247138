#include "core/allreduce.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/check.hpp"

#include "comm/parallel.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using testing::expect_check_message;
using testing::random_workload;
using testing::Workload;

/// Degree schedules exercised by the property suite — heterogeneous,
/// homogeneous, direct, binary, degree-1 layers, non-powers-of-two.
const std::vector<std::vector<std::uint32_t>> kSchedules = {
    {},        // 1 machine
    {2},       // minimal direct
    {8},       // direct
    {2, 2, 2},  // binary
    {4, 2},    // the paper's decreasing shape
    {2, 4},    // increasing (legal, suboptimal)
    {3, 5},    // non-power-of-two
    {4, 1, 2},  // degree-1 middle layer
    {8, 4, 2},  // the Twitter schedule (64 machines)
};

class AllreduceScheduleTest
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(AllreduceScheduleTest, SeparateConfigureThenReduceMatchesOracle) {
  const Topology topo(GetParam());
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 200, 0.15, 0.3, 1000 + m);
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto results = allreduce.reduce(w.out_values);
  testing::expect_matches_oracle<float>(w, results);
}

TEST_P(AllreduceScheduleTest, CombinedConfigReduceMatchesOracle) {
  const Topology topo(GetParam());
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 150, 0.2, 0.4, 2000 + m);
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  const auto results =
      allreduce.reduce_with_config(w.in_sets, w.out_sets, w.out_values);
  testing::expect_matches_oracle<float>(w, results);
}

TEST_P(AllreduceScheduleTest, RepeatedReduceReusesConfiguration) {
  const Topology topo(GetParam());
  const rank_t m = topo.num_machines();
  auto w = random_workload<float>(m, 100, 0.25, 0.5, 3000 + m);
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  for (int round = 0; round < 3; ++round) {
    // New values, same sets: the PageRank pattern.
    for (auto& values : w.out_values) {
      for (auto& v : values) v += static_cast<float>(round);
    }
    const auto results = allreduce.reduce(w.out_values);
    testing::expect_matches_oracle<float>(w, results);
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, AllreduceScheduleTest,
                         ::testing::ValuesIn(kSchedules));

TEST(Allreduce, MinOperatorMatchesOracle) {
  const Topology topo({4, 2});
  const auto w =
      random_workload<std::uint32_t>(topo.num_machines(), 120, 0.3, 0.5, 4);
  ParallelBspEngine<std::uint32_t> engine(topo.num_machines(), 1);
  SparseAllreduce<std::uint32_t, OpMin, ParallelBspEngine<std::uint32_t>>
      allreduce(&engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto results = allreduce.reduce(w.out_values);
  testing::expect_matches_oracle<std::uint32_t, OpMin>(w, results);
}

TEST(Allreduce, BitOrOperatorMatchesOracle) {
  const Topology topo({2, 3});
  const auto w =
      random_workload<std::uint64_t>(topo.num_machines(), 120, 0.3, 0.5, 5);
  ParallelBspEngine<std::uint64_t> engine(topo.num_machines(), 1);
  SparseAllreduce<std::uint64_t, OpBitOr, ParallelBspEngine<std::uint64_t>>
      allreduce(&engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto results = allreduce.reduce(w.out_values);
  testing::expect_matches_oracle<std::uint64_t, OpBitOr>(w, results);
}

TEST(Allreduce, DoubleValuesMatchOracleAcrossModes) {
  // V = double instantiation coverage: the plan, executor, and node paths
  // are value-type templated and must agree with the oracle beyond float.
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<double>(m, 150, 0.2, 0.4, 60);
  ParallelBspEngine<double> engine(m, 1);
  SparseAllreduce<double, OpSum, ParallelBspEngine<double>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto separate = allreduce.reduce(w.out_values);
  testing::expect_matches_oracle<double>(w, separate);
  SparseAllreduce<double, OpSum, ParallelBspEngine<double>> combined(
      &engine, topo);
  EXPECT_EQ(
      combined.reduce_with_config(w.in_sets, w.out_sets, w.out_values),
      separate);
}

TEST(Allreduce, SingleMachineIsALocalReduction) {
  const Topology topo({});
  Workload<float> w;
  w.out_sets = {KeySet::from_indices(std::vector<index_t>{1, 2, 3})};
  w.out_values = {{10, 20, 30}};
  w.in_sets = {KeySet::from_indices(std::vector<index_t>{2})};
  ParallelBspEngine<float> engine(1, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto results = allreduce.reduce(w.out_values);
  testing::expect_matches_oracle<float>(w, results);
}

TEST(Allreduce, RequestedButNeverContributedIndexThrows) {
  const Topology topo({2});
  std::vector<KeySet> in_sets = {
      KeySet::from_indices(std::vector<index_t>{1, 99}),
      KeySet::from_indices(std::vector<index_t>{1})};
  std::vector<KeySet> out_sets = {
      KeySet::from_indices(std::vector<index_t>{1, 2}),
      KeySet::from_indices(std::vector<index_t>{1})};
  ParallelBspEngine<float> engine(2, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  EXPECT_THROW(allreduce.configure(std::move(in_sets), std::move(out_sets)),
               check_error);
}

TEST(Allreduce, ReduceBeforeConfigureThrows) {
  ParallelBspEngine<float> engine(2, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, Topology({2}));
  EXPECT_THROW((void)allreduce.reduce({{1.0f}, {2.0f}}), check_error);
}

TEST(Allreduce, WrongValueLengthThrows) {
  const Topology topo({2});
  const auto w = random_workload<float>(2, 30, 0.5, 0.5, 6);
  ParallelBspEngine<float> engine(2, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  auto bad = w.out_values;
  bad[0].push_back(1.0f);
  EXPECT_THROW((void)allreduce.reduce(std::move(bad)), check_error);
}

TEST(Allreduce, WrongSetCountThrows) {
  const Topology topo({2, 2});
  const auto w = random_workload<float>(4, 30, 0.5, 0.5, 9);
  ParallelBspEngine<float> engine(4, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  auto in_sets = w.in_sets;
  in_sets.pop_back();
  expect_check_message([&] { allreduce.configure(in_sets, w.out_sets); },
                       "in_sets has 3 entries, expected 4");
  auto out_sets = w.out_sets;
  out_sets.push_back(KeySet{});
  expect_check_message([&] { allreduce.configure(w.in_sets, out_sets); },
                       "out_sets has 5 entries, expected 4");
}

TEST(Allreduce, HierarchicalWrongSetCountThrows) {
  const Topology hier({2}, 2);
  const auto w = random_workload<float>(4, 30, 0.5, 0.5, 10);
  ParallelBspEngine<float> engine(4, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, hier);
  auto in_sets = w.in_sets;
  in_sets.pop_back();
  expect_check_message(
      [&] { (void)allreduce.compile(in_sets, w.out_sets); },
      "in_sets has 3 entries, expected 4");
  auto out_sets = w.out_sets;
  out_sets.pop_back();
  expect_check_message(
      [&] { (void)allreduce.compile(w.in_sets, out_sets); },
      "out_sets has 3 entries, expected 4");
}

TEST(Allreduce, WrongValueCountThrows) {
  const Topology topo({2});
  const auto w = random_workload<float>(2, 30, 0.5, 0.5, 11);
  ParallelBspEngine<float> engine(2, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  auto values = w.out_values;
  values.pop_back();
  expect_check_message([&] { (void)allreduce.reduce(values); },
                       "out_values has 1 entries, expected 2");
}

TEST(Allreduce, CombinedWrongValueCountThrows) {
  const Topology topo({2});
  const auto w = random_workload<float>(2, 30, 0.5, 0.5, 12);
  ParallelBspEngine<float> engine(2, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  auto values = w.out_values;
  values.push_back({});
  expect_check_message(
      [&] {
        (void)allreduce.reduce_with_config(w.in_sets, w.out_sets, values);
      },
      "out_values has 3 entries, expected 2");
}

TEST(Allreduce, CombinedWrongValueLengthThrows) {
  const Topology topo({2});
  const auto w = random_workload<float>(2, 30, 0.5, 0.5, 13);
  ParallelBspEngine<float> engine(2, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  auto values = w.out_values;
  values[1].push_back(1.0f);
  const std::string expected =
      "machine 1 contributes " + std::to_string(values[1].size()) +
      " values, expected " + std::to_string(w.out_sets[1].size());
  expect_check_message(
      [&] {
        (void)allreduce.reduce_with_config(w.in_sets, w.out_sets, values);
      },
      expected);
}

TEST(Allreduce, EngineTopologyMismatchThrows) {
  ParallelBspEngine<float> engine(4, 1);
  EXPECT_THROW((SparseAllreduce<float, OpSum, ParallelBspEngine<float>>(
                   &engine, Topology({2}))),
               check_error);
}

TEST(Allreduce, EmptyInSetsReceiveNothing) {
  const Topology topo({2, 2});
  std::vector<KeySet> in_sets(4);  // nobody requests anything
  std::vector<KeySet> out_sets;
  std::vector<std::vector<float>> values;
  for (rank_t r = 0; r < 4; ++r) {
    out_sets.push_back(KeySet::from_indices(std::vector<index_t>{r}));
    values.push_back({static_cast<float>(r)});
  }
  ParallelBspEngine<float> engine(4, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(std::move(in_sets), std::move(out_sets));
  const auto results = allreduce.reduce(std::move(values));
  for (const auto& r : results) {
    EXPECT_TRUE(r.empty());
  }
}

TEST(Allreduce, DenseIdenticalSetsBehaveLikeDenseAllreduce) {
  // Every machine contributes and requests the same index set: Kylix
  // degenerates to a dense butterfly allreduce.
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  std::vector<index_t> ids;
  for (index_t f = 0; f < 64; ++f) ids.push_back(f);
  Workload<float> w;
  for (rank_t r = 0; r < m; ++r) {
    w.in_sets.push_back(KeySet::from_indices(ids));
    w.out_sets.push_back(KeySet::from_indices(ids));
    std::vector<float> values(64);
    for (std::size_t p = 0; p < 64; ++p) {
      values[p] = static_cast<float>(r + p);
    }
    w.out_values.push_back(std::move(values));
  }
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto results = allreduce.reduce(w.out_values);
  testing::expect_matches_oracle<float>(w, results);
}

TEST(Allreduce, PerLayerSetsShrinkOnOverlappingData) {
  // The Kylix-shape precursor: per-node out sets shrink down the layers
  // when machines share indices (collision collapse).
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 100, 0.7, 0.5, 8);  // dense-ish
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  double total_l1 = 0;
  double total_l2 = 0;
  for (rank_t r = 0; r < m; ++r) {
    const RankPlan& rp = allreduce.plan()->rank_plan(r);
    total_l1 += static_cast<double>(rp.out_sizes[1]);
    total_l2 += static_cast<double>(rp.out_sizes[2]);
  }
  EXPECT_LT(total_l2, total_l1);
}

}  // namespace
}  // namespace kylix
