// End-to-end determinism of the host-parallel engine: SparseAllreduce on
// ParallelBspEngine at 4 threads must be *bit-identical* to the same engine
// at one thread — results, trace event sequences, and modeled timing —
// across configure/reduce, the combined minibatch mode, failure injection,
// and the PageRank / SGD apps.
#include "core/allreduce.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "apps/pagerank.hpp"
#include "apps/sgd.hpp"
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

}  // namespace
}  // namespace kylix
