#include <gtest/gtest.h>

#include "common/check.hpp"

#include "comm/parallel.hpp"
#include "comm/threaded.hpp"
#include "core/allreduce.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using testing::random_workload;

class ThreadedScheduleTest
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(ThreadedScheduleTest, MatchesTheSequentialEngineBitForBit) {
  const Topology topo(GetParam());
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 150, 0.2, 0.4, 500 + m);

  std::vector<std::vector<float>> sequential;
  {
    ParallelBspEngine<float> engine(m, 1);
    SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
        &engine, topo);
    allreduce.configure(w.in_sets, w.out_sets);
    sequential = allreduce.reduce(w.out_values);
  }
  std::vector<std::vector<float>> threaded;
  {
    ThreadedBsp<float> engine(m);
    SparseAllreduce<float, OpSum, ThreadedBsp<float>> allreduce(&engine,
                                                                topo);
    allreduce.configure(w.in_sets, w.out_sets);
    threaded = allreduce.reduce(w.out_values);
  }
  EXPECT_EQ(threaded, sequential);
  testing::expect_matches_oracle<float>(w, threaded);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ThreadedScheduleTest,
    ::testing::Values(std::vector<std::uint32_t>{},
                      std::vector<std::uint32_t>{4},
                      std::vector<std::uint32_t>{2, 2},
                      std::vector<std::uint32_t>{4, 2},
                      std::vector<std::uint32_t>{3, 3}));

TEST(ThreadedAllreduce, CombinedModeWorksConcurrently) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 100, 0.3, 0.4, 77);
  ThreadedBsp<float> engine(m);
  SparseAllreduce<float, OpSum, ThreadedBsp<float>> allreduce(&engine, topo);
  const auto results =
      allreduce.reduce_with_config(w.in_sets, w.out_sets, w.out_values);
  testing::expect_matches_oracle<float>(w, results);
}

TEST(ThreadedAllreduce, RepeatedReductionsStayCorrect) {
  const Topology topo({2, 2, 2});
  const rank_t m = topo.num_machines();
  auto w = random_workload<float>(m, 120, 0.25, 0.4, 88);
  ThreadedBsp<float> engine(m);
  SparseAllreduce<float, OpSum, ThreadedBsp<float>> allreduce(&engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  for (int round = 0; round < 5; ++round) {
    testing::expect_matches_oracle<float>(w, allreduce.reduce(w.out_values));
  }
}

TEST(ThreadedBspEngine, RecordsTraceLikeSequential) {
  const Topology topo({2, 2});
  const auto w = random_workload<float>(4, 60, 0.3, 0.5, 99);

  Trace seq_trace;
  {
    ParallelBspEngine<float> engine(4, 1, nullptr, &seq_trace);
    SparseAllreduce<float, OpSum, ParallelBspEngine<float>> ar(&engine, topo);
    ar.configure(w.in_sets, w.out_sets);
    (void)ar.reduce(w.out_values);
  }
  Trace thr_trace;
  {
    ThreadedBsp<float> engine(4, nullptr, &thr_trace);
    SparseAllreduce<float, OpSum, ThreadedBsp<float>> ar(&engine, topo);
    ar.configure(w.in_sets, w.out_sets);
    (void)ar.reduce(w.out_values);
  }
  EXPECT_EQ(thr_trace.num_messages(), seq_trace.num_messages());
  EXPECT_EQ(thr_trace.total_bytes(), seq_trace.total_bytes());
  EXPECT_EQ(thr_trace.bytes_by_layer_all_phases(2),
            seq_trace.bytes_by_layer_all_phases(2));
}

TEST(ThreadedBspEngine, DeadNodesAreSkipped) {
  FailureModel failures(4);
  failures.kill(3);
  ThreadedBsp<float> engine(4, &failures);
  std::vector<int> received(4, 0);
  engine.round(
      Phase::kConfig, 1,
      [&](rank_t r) {
        std::vector<Letter<float>> letters;
        for (rank_t dst = 0; dst < 4; ++dst) {
          Letter<float> letter;
          letter.src = r;
          letter.dst = dst;
          letters.push_back(std::move(letter));
        }
        return letters;
      },
      [&](rank_t) {
        return std::vector<rank_t>{0, 1, 2, 3};
      },
      [&](rank_t r, std::vector<Letter<float>>&& inbox) {
        received[r] = static_cast<int>(inbox.size());
      });
  EXPECT_EQ(received, (std::vector<int>{3, 3, 3, 0}));
}

TEST(ThreadedBspEngine, WorkerExceptionsPropagate) {
  ThreadedBsp<float> engine(2);
  EXPECT_THROW(
      engine.round(
          Phase::kConfig, 1,
          [&](rank_t r) -> std::vector<Letter<float>> {
            if (r == 1) throw check_error("boom");
            return {};
          },
          [&](rank_t) { return std::vector<rank_t>{}; },
          [&](rank_t, std::vector<Letter<float>>&&) {}),
      check_error);
  // The engine stays usable after a worker error.
  engine.round(
      Phase::kConfig, 2, [&](rank_t) { return std::vector<Letter<float>>{}; },
      [&](rank_t) { return std::vector<rank_t>{}; },
      [&](rank_t, std::vector<Letter<float>>&&) {});
}

}  // namespace
}  // namespace kylix
