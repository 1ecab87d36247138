// Streamed chaos lane: the streaming packetized reduction (DESIGN §9) must
// survive exactly the fault schedules the letter-at-once path survives, with
// the same guarantees:
//
//   * transient drop/duplicate/delay storms plus single-replica crashes are
//     invisible — streamed results bit-identical to the clean streamed run
//     (which is itself bit-identical to letter-at-once);
//   * a dead replica group degrades identically — same DegradedReport, and
//     results equal to the letter-at-once degraded run under the same
//     schedule;
//   * the blocking threaded engine terminates under reduce-phase storms
//     (framed tombstones keep multi-chunk edges balanced);
//   * a delayed *chunk* is superseded by the next run's fresh copy of the
//     same (src, chunk_index) slot only — sibling chunks still deliver.
//
// Fault schedules are per-run state (RNG position, edge-rule counts), so
// each mode gets its own identically-seeded FaultPlan, never a shared one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "comm/fault_channel.hpp"
#include "comm/parallel.hpp"
#include "comm/replicated.hpp"
#include "core/allreduce.hpp"
#include "core/degraded.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using Engine = ReplicatedBsp<float>;
using Allreduce = SparseAllreduce<float, OpSum, Engine>;
using testing::random_workload;

constexpr std::uint64_t kChunkBytes = 96;  // tiny: nearly every letter splits

FaultPlan::TransientRates storm_rates() {
  FaultPlan::TransientRates rates;
  rates.drop = 0.08;
  rates.duplicate = 0.05;
  rates.delay = 0.05;
  return rates;
}

void expect_same_report(const DegradedReport& a, const DegradedReport& b) {
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.lost_logical, b.lost_logical);
  EXPECT_EQ(a.lost_from_start, b.lost_from_start);
  EXPECT_EQ(a.inputs_lost, b.inputs_lost);
  EXPECT_EQ(a.lost_keys, b.lost_keys);
  EXPECT_EQ(a.lost_keys_per_rank, b.lost_keys_per_rank);
  EXPECT_EQ(a.degraded_ranges.size(), b.degraded_ranges.size());
  for (std::size_t i = 0;
       i < std::min(a.degraded_ranges.size(), b.degraded_ranges.size());
       ++i) {
    EXPECT_EQ(a.degraded_ranges[i].lo, b.degraded_ranges[i].lo) << i;
    EXPECT_EQ(a.degraded_ranges[i].hi, b.degraded_ranges[i].hi) << i;
  }
  EXPECT_DOUBLE_EQ(a.mass_lost_fraction, b.mass_lost_fraction);
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(StreamChaos, TransientFaultsAndReplicaCrashesAreInvisibleStreamed) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  std::uint64_t total_faults = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto w = random_workload<float>(m, 512, 0.25, 0.4, 7000 + seed);

    // Reference: failure-free letter-at-once run.
    Engine clean(m, 2);
    Allreduce clean_ar(&clean, topo);
    clean_ar.configure(w.in_sets, w.out_sets);
    const auto clean_results = clean_ar.reduce(w.out_values);

    // Chaotic streamed run under the PR-4 storm shape: transient faults
    // everywhere plus up to three single-replica crashes, one per group.
    FaultPlan plan(m * 2, seed);
    plan.set_transient_rates(storm_rates());
    const rank_t crashes = seed % 4;
    for (rank_t c = 0; c < crashes; ++c) {
      const rank_t victim = (seed + 2 * c) % m;
      const rank_t replica = (seed + c) % 2;
      plan.crash_at_round(victim + replica * m, (seed + c) % 6);
    }
    FaultChannel<float> channel(&plan);
    Engine engine(m, 2);
    engine.set_fault_channel(&channel);
    Allreduce allreduce(&engine, topo);
    allreduce.set_streaming(true);
    allreduce.set_chunk_bytes(kChunkBytes);
    allreduce.configure(w.in_sets, w.out_sets);
    const auto results = allreduce.reduce(w.out_values);

    ASSERT_FALSE(engine.has_failed());
    EXPECT_EQ(results, clean_results)
        << "streamed chaotic run diverged from the clean letter run";
    EXPECT_GT(allreduce.stream_stats().max_chunks_per_letter, 1u);
    EXPECT_FALSE(allreduce.degraded_report().degraded);
    const FaultStats& stats = plan.stats();
    total_faults += stats.dropped + stats.duplicated + stats.delayed;
  }
  EXPECT_GT(total_faults, 100u) << "the storm never hit a chunk";
}

TEST(StreamChaos, GroupDeathDegradesIdenticallyToLetterAtOnce) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto w = random_workload<float>(m, 48, 0.2, 0.4, 8000 + seed);
    const rank_t g = seed % m;  // the doomed logical group

    // Each mode gets its own identically-seeded schedule and fresh engine.
    const auto run = [&](bool streamed, DegradedReport* report) {
      FaultPlan plan(m * 2, seed);
      plan.failures().kill(g);
      plan.failures().kill(g + m);
      plan.set_transient_rates(storm_rates());
      FaultChannel<float> channel(&plan);
      Engine engine(m, 2);
      engine.set_fault_channel(&channel);
      Allreduce allreduce(&engine, topo);
      allreduce.set_streaming(streamed);
      allreduce.set_chunk_bytes(streamed ? kChunkBytes : 0);
      allreduce.configure(w.in_sets, w.out_sets);
      auto results = allreduce.reduce(w.out_values);
      *report = allreduce.degraded_report();
      return results;
    };

    DegradedReport letter_report;
    const auto letter = run(false, &letter_report);
    DegradedReport stream_report;
    const auto streamed = run(true, &stream_report);

    EXPECT_TRUE(letter_report.degraded);
    EXPECT_EQ(streamed, letter)
        << "streamed degraded completion diverged from letter-at-once";
    expect_same_report(stream_report, letter_report);
  }
}

TEST(StreamChaos, DelayedChunkIsSupersededBySlotNotBySender) {
  // A delayed chunk from src s redelivers into the next streamed run. The
  // supersede rule keys on (src, chunk_index): the stale chunk is discarded
  // because a fresh copy of its own slot arrived — while the sender's other
  // chunks in the same round deliver normally. A src-only rule would have
  // eaten those siblings and broken the reduce.
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 256, 0.5, 0.6, 19);

  FaultPlan plan(m);
  FaultChannel<float> channel(&plan);
  ParallelBspEngine<float> engine(m, 1);
  engine.set_fault_channel(&channel);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.set_streaming(true);
  allreduce.set_chunk_bytes(kChunkBytes);
  allreduce.configure(w.in_sets, w.out_sets);
  ASSERT_GT(allreduce.stream_stats().max_chunks_per_letter, 0u);

  // Armed after configuration: the held-back letter is one value chunk of
  // the down pass.
  FaultPlan::EdgeRule rule;
  rule.src = 0;
  rule.dst = topo.group(1, 0)[1];
  rule.action = FaultAction::kDelay;
  rule.delay_rounds = 1;
  rule.count = 1;
  plan.add_edge_rule(rule);

  // Run 1: one chunk is held back; its round completes without it.
  (void)allreduce.reduce(w.out_values);
  EXPECT_EQ(plan.stats().delayed, 1u);
  EXPECT_EQ(channel.pending_delayed(), 1u);
  EXPECT_GT(allreduce.stream_stats().max_chunks_per_letter, 1u);

  // Run 2 revisits the same {phase, layer} with the same chunking: the
  // stale chunk meets a fresh letter in its slot and is discarded; the
  // run is exact.
  const auto results = allreduce.reduce(w.out_values);
  EXPECT_EQ(channel.pending_delayed(), 0u);
  EXPECT_EQ(channel.stale(), 1u);
  EXPECT_EQ(channel.redelivered(), 0u);
  testing::expect_matches_oracle<float>(w, results);
}

}  // namespace
}  // namespace kylix
