#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.hpp"

#include "cluster/failure.hpp"
#include "comm/parallel.hpp"
#include "comm/threaded.hpp"
#include "core/allreduce.hpp"
#include "sparse/ops.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using testing::random_workload;
using testing::Workload;

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

// An input nobody reads must not leak into the next replay. Contributions
// are read in place, so a rank dead at replay keeps its unread input, and
// so do the members of a host whose leader is dead. Each case runs twice on
// one allreduce: first with one rank killed (results unchecked), then with
// it revived and new values. The second results must equal the
// ReferenceReduce oracle and a fresh allreduce's results, bit for bit.
template <unsigned Threads>
struct ParallelAt {
  using Engine = ParallelBspEngine<float>;
  static std::unique_ptr<Engine> make(rank_t m, const FailureModel* failures) {
    return std::make_unique<Engine>(m, Threads, failures);
  }
};

struct Threaded {
  using Engine = ThreadedBsp<float>;
  static std::unique_ptr<Engine> make(rank_t m, const FailureModel* failures) {
    return std::make_unique<Engine>(m, failures);
  }
};

template <typename Policy>
class UnreadInput : public ::testing::Test {
 protected:
  using Engine = typename Policy::Engine;
  using Allreduce = SparseAllreduce<float, OpSum, Engine>;

  /// The second replay's values: new, and still exact in float.
  static std::vector<std::vector<float>> second_values(
      const Workload<float>& w) {
    std::vector<std::vector<float>> values = w.out_values;
    for (std::size_t r = 0; r < values.size(); ++r) {
      for (float& v : values[r]) v = v * 3.0f + static_cast<float>(r + 1);
    }
    return values;
  }

  /// ReferenceReduce's answer to every rank's request set.
  static std::vector<std::vector<float>> oracle(
      const Workload<float>& w, const std::vector<std::vector<float>>& values) {
    std::vector<SparseVector<float>> contributions;
    for (std::size_t r = 0; r < values.size(); ++r) {
      contributions.push_back(SparseVector<float>{w.out_sets[r], values[r]});
    }
    const ReferenceReduce<float> reference(contributions);
    std::vector<std::vector<float>> results;
    for (const KeySet& in : w.in_sets) results.push_back(reference.lookup(in));
    return results;
  }

  /// Replay with `victim` dead, then revived with new values.
  static void replay_dead_then_revived(const Topology& topo, rank_t victim,
                                       std::uint64_t seed) {
    const rank_t m = topo.num_machines();
    const auto w = random_workload<float>(m, 400, 0.2, 0.3, seed);
    const auto values = second_values(w);

    FailureModel failures(m);
    const auto engine = Policy::make(m, &failures);
    Allreduce allreduce(engine.get(), topo);
    allreduce.configure(w.in_sets, w.out_sets);
    failures.kill(victim);
    (void)allreduce.reduce(w.out_values);
    failures.revive(victim);
    const auto results = allreduce.reduce(values);
    EXPECT_EQ(results, oracle(w, values));

    const auto fresh_engine = Policy::make(m, nullptr);
    Allreduce fresh(fresh_engine.get(), topo);
    fresh.configure(w.in_sets, w.out_sets);
    EXPECT_EQ(results, fresh.reduce(values));
  }
};

using WireEngines = ::testing::Types<ParallelAt<1>, ParallelAt<4>, Threaded>;
TYPED_TEST_SUITE(UnreadInput, WireEngines);

TYPED_TEST(UnreadInput, FlatPlanDeadRank) {
  TestFixture::replay_dead_then_revived(Topology({4, 2}), 5, 601);
}

TYPED_TEST(UnreadInput, HierarchicalPlanDeadMember) {
  TestFixture::replay_dead_then_revived(Topology({2, 2}, 3), 4, 602);
}

TYPED_TEST(UnreadInput, HierarchicalPlanDeadLeader) {
  TestFixture::replay_dead_then_revived(Topology({2, 2}, 3), 3, 603);
}

TYPED_TEST(UnreadInput, OneMachineDeadRank) {
  TestFixture::replay_dead_then_revived(Topology({}), 0, 604);
}

TYPED_TEST(UnreadInput, OneHostDeadMember) {
  TestFixture::replay_dead_then_revived(Topology({}, 4), 2, 606);
}

TYPED_TEST(UnreadInput, CombinedModeDeadRank) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  // Every machine contributes every feature, so configuration survives the
  // dead rank (see ParallelParity.CombinedModeWithFailuresIsBitIdentical).
  const auto w = random_workload<float>(m, 300, 1.0, 0.3, 605);
  const auto values = TestFixture::second_values(w);

  FailureModel failures(m);
  const auto engine = TypeParam::make(m, &failures);
  typename TestFixture::Allreduce allreduce(engine.get(), topo);
  failures.kill(6);
  (void)allreduce.reduce_with_config(w.in_sets, w.out_sets, w.out_values);
  failures.revive(6);
  const auto results =
      allreduce.reduce_with_config(w.in_sets, w.out_sets, values);
  EXPECT_EQ(results, TestFixture::oracle(w, values));

  const auto fresh_engine = TypeParam::make(m, nullptr);
  typename TestFixture::Allreduce fresh(fresh_engine.get(), topo);
  EXPECT_EQ(results, fresh.reduce_with_config(w.in_sets, w.out_sets, values));
}

}  // namespace
}  // namespace kylix
