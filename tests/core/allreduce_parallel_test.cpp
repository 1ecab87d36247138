// End-to-end determinism of the host-parallel engine: SparseAllreduce on
// ParallelBspEngine at 4 threads must be *bit-identical* to the same engine
// at one thread — results, trace event sequences, and modeled timing —
// across configure/reduce, the combined minibatch mode, failure injection,
// and the PageRank / SGD apps; and at both thread counts an input nobody
// reads never leaks into the next replay.
#include "core/allreduce.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/pagerank.hpp"
#include "apps/sgd.hpp"
#include "cluster/failure.hpp"
#include "comm/parallel.hpp"
#include "powerlaw/graphgen.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using Engine = ParallelBspEngine<float>;

void expect_same_trace(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const MsgEvent& x = a.events()[i];
    const MsgEvent& y = b.events()[i];
    EXPECT_TRUE(x.phase == y.phase && x.layer == y.layer && x.src == y.src &&
                x.dst == y.dst && x.bytes == y.bytes)
        << "event " << i;
  }
}

void expect_same_times(const TimingAccumulator::PhaseTimes& a,
                       const TimingAccumulator::PhaseTimes& b) {
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.reduce_down, b.reduce_down);
  EXPECT_EQ(a.reduce_up, b.reduce_up);
}

class ParallelParityTest
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(ParallelParityTest, ReduceIsBitIdenticalToSequential) {
  const Topology topo(GetParam());
  const rank_t m = topo.num_machines();
  const auto w =
      testing::random_workload<float>(m, 4000, 0.05, 0.1, 90 + m);
  const NetworkModel net = NetworkModel::ec2_like();
  const ComputeModel compute;

  Trace seq_trace, par_trace;
  TimingAccumulator seq_timing(m, net, compute, 16);
  TimingAccumulator par_timing(m, net, compute, 16);

  Engine seq_engine(m, 1, nullptr, &seq_trace, &seq_timing);
  SparseAllreduce<float, OpSum, Engine> seq(&seq_engine, topo, &compute);
  seq.configure(w.in_sets, w.out_sets);

  Engine par_engine(m, 4, nullptr, &par_trace, &par_timing);
  SparseAllreduce<float, OpSum, Engine> par(&par_engine, topo, &compute);
  par.configure(w.in_sets, w.out_sets);

  // Several reductions: the steady-state (buffer-recycling) path must stay
  // identical, not just the cold first pass.
  for (int iter = 0; iter < 3; ++iter) {
    const auto seq_results = seq.reduce(w.out_values);
    const auto par_results = par.reduce(w.out_values);
    ASSERT_EQ(seq_results, par_results) << "iteration " << iter;
    if (iter == 0) testing::expect_matches_oracle<float>(w, par_results);
  }
  expect_same_trace(seq_trace, par_trace);
  expect_same_times(seq_timing.times(), par_timing.times());
}

INSTANTIATE_TEST_SUITE_P(Topologies, ParallelParityTest,
                         ::testing::Values(std::vector<std::uint32_t>{4, 2},
                                           std::vector<std::uint32_t>{2, 2, 2},
                                           std::vector<std::uint32_t>{16},
                                           std::vector<std::uint32_t>{3, 5}));

TEST(ParallelParity, CombinedModeWithFailuresIsBitIdentical) {
  const Topology topo({4, 2, 2});
  const rank_t m = topo.num_machines();
  const NetworkModel net = NetworkModel::ec2_like();
  const ComputeModel compute;

  FailureModel failures(m);
  failures.kill(3);
  failures.kill(11);

  Trace seq_trace, par_trace;
  TimingAccumulator seq_timing(m, net, compute, 16);
  TimingAccumulator par_timing(m, net, compute, 16);

  Engine seq_engine(m, 1, &failures, &seq_trace, &seq_timing);
  SparseAllreduce<float, OpSum, Engine> seq(&seq_engine, topo, &compute);
  Engine par_engine(m, 4, &failures, &par_trace, &par_timing);
  SparseAllreduce<float, OpSum, Engine> par(&par_engine, topo, &compute);

  // Minibatch-style: combined configure+reduce every step, new sets each
  // time, with dead machines dropping traffic identically on both engines.
  // Plain (non-replicated) BSP only tolerates failures when the killed
  // machines' contributions are redundant at every routing layer, so every
  // machine contributes the full feature set (out_prob = 1); otherwise
  // configure correctly rejects the workload (∪in ⊄ ∪out).
  for (int step = 0; step < 4; ++step) {
    const auto w =
        testing::random_workload<float>(m, 1200, 1.0, 0.1, 500 + step);
    const auto seq_results =
        seq.reduce_with_config(w.in_sets, w.out_sets, w.out_values);
    const auto par_results =
        par.reduce_with_config(w.in_sets, w.out_sets, w.out_values);
    ASSERT_EQ(seq_results, par_results) << "step " << step;
  }
  expect_same_trace(seq_trace, par_trace);
  expect_same_times(seq_timing.times(), par_timing.times());
}

TEST(ParallelParity, ReduceWithFailuresMatchesSequential) {
  const Topology topo({4, 4});
  const rank_t m = topo.num_machines();
  // Full contribution redundancy (see CombinedModeWithFailuresIsBitIdentical
  // for why plain failures need out_prob = 1).
  const auto w = testing::random_workload<float>(m, 1500, 1.0, 0.15, 321);

  FailureModel failures(m);
  failures.kill(5);

  Trace seq_trace, par_trace;
  Engine seq_engine(m, 1, &failures, &seq_trace, nullptr);
  SparseAllreduce<float, OpSum, Engine> seq(&seq_engine, topo);
  Engine par_engine(m, 4, &failures, &par_trace, nullptr);
  SparseAllreduce<float, OpSum, Engine> par(&par_engine, topo);

  seq.configure(w.in_sets, w.out_sets);
  par.configure(w.in_sets, w.out_sets);
  EXPECT_EQ(seq.reduce(w.out_values), par.reduce(w.out_values));
  expect_same_trace(seq_trace, par_trace);
}

TEST(ParallelParity, PageRankRanksAreBitIdentical) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  GraphSpec spec;
  spec.num_vertices = 2000;
  spec.num_edges = 20000;
  spec.alpha_out = 1.2;
  spec.alpha_in = 1.1;
  spec.seed = 7;
  const auto edges = generate_zipf_graph(spec);
  const auto parts = random_edge_partition(edges, m, spec.seed);

  using RealEngine = ParallelBspEngine<real_t>;
  RealEngine seq_engine(m, 1);
  DistributedPageRank<RealEngine> seq_pr(&seq_engine, topo, parts,
                                         spec.num_vertices);
  RealEngine par_engine(m, 4);
  DistributedPageRank<RealEngine> par_pr(&par_engine, topo, parts,
                                         spec.num_vertices);

  const auto seq_result = seq_pr.run({.damping = 0.85, .iterations = 6});
  const auto par_result = par_pr.run({.damping = 0.85, .iterations = 6});
  ASSERT_EQ(seq_result.iterations.size(), par_result.iterations.size());
  for (rank_t r = 0; r < m; ++r) {
    const auto seq_vals = seq_pr.machine_values(r);
    const auto par_vals = par_pr.machine_values(r);
    ASSERT_EQ(seq_vals.size(), par_vals.size()) << "machine " << r;
    for (std::size_t p = 0; p < seq_vals.size(); ++p) {
      EXPECT_EQ(seq_vals[p], par_vals[p]) << "machine " << r << " pos " << p;
    }
  }
}

TEST(ParallelParity, SgdLossTrajectoryIsBitIdentical) {
  const Topology topo({2, 2});
  using RealEngine = ParallelBspEngine<real_t>;

  DistributedSgd<RealEngine>::Options options;
  options.num_features = 1 << 10;
  options.samples_per_batch = 128;
  options.features_per_sample = 8;
  options.alpha = 1.1;
  options.learning_rate = 0.3;
  options.steps = 8;
  options.seed = 61;

  RealEngine seq_engine(4, 1);
  DistributedSgd<RealEngine> seq_sgd(&seq_engine, topo, options);
  RealEngine par_engine(4, 4);
  DistributedSgd<RealEngine> par_sgd(&par_engine, topo, options);

  const auto seq_stats = seq_sgd.run();
  const auto par_stats = par_sgd.run();
  ASSERT_EQ(seq_stats.size(), par_stats.size());
  for (std::size_t s = 0; s < seq_stats.size(); ++s) {
    EXPECT_EQ(seq_stats[s].loss, par_stats[s].loss) << "step " << s;
  }
}

using testing::random_workload;
using testing::Workload;

// Five small schedules at four pool threads, against the sequential engine
// and the oracle — among them the ones ParallelParityTest leaves out: one
// machine, one layer, and 2x2 and 3x3 butterflies.
class ThreadedScheduleTest
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(ThreadedScheduleTest, MatchesTheSequentialEngineBitForBit) {
  const Topology topo(GetParam());
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 150, 0.2, 0.4, 500 + m);

  std::vector<std::vector<float>> sequential;
  {
    Engine engine(m, 1);
    SparseAllreduce<float, OpSum, Engine> allreduce(&engine, topo);
    allreduce.configure(w.in_sets, w.out_sets);
    sequential = allreduce.reduce(w.out_values);
  }
  std::vector<std::vector<float>> threaded;
  {
    Engine engine(m, 4);
    SparseAllreduce<float, OpSum, Engine> allreduce(&engine, topo);
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

using WireEngines = ::testing::Types<ParallelAt<1>, ParallelAt<4>>;
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
