// Chaos property harness (ISSUE: chaos engine). Sweeps 64+ seeded fault
// schedules through the replication layer and asserts the two invariants of
// DESIGN.md "Degraded completion":
//
//   1. With s >= 2 and no whole replica group dead, the result is
//      bit-identical to the failure-free run — drops, duplicates, delays,
//      and single-replica crashes are absorbed by racing + recovery.
//   2. With a whole group dead, the run completes in degraded mode and every
//      alive requester's values at keys outside degraded_ranges ∪ lost_keys
//      exactly equal the brute-force sum excluding inputs_lost ranks.
//
// Plus fault-semantics checks for the shared FaultChannel hook on the plain
// engine (ParallelBspEngine sequential and pooled).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "comm/fault_channel.hpp"
#include "comm/parallel.hpp"
#include "comm/replicated.hpp"
#include "core/allreduce.hpp"
#include "core/degraded.hpp"
#include "obs/engine_obs.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using Engine = ReplicatedBsp<float>;
using Allreduce = SparseAllreduce<float, OpSum, Engine>;
using testing::random_workload;
using testing::Workload;

bool contains(const std::vector<rank_t>& v, rank_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// The degraded-completion contract: for every alive requester, result
/// values at keys outside degraded_ranges ∪ lost_keys exactly equal the
/// brute-force sum over all machines except `report.inputs_lost` (whose
/// contributions never entered any sum). Returns how many positions were
/// actually comparable, so callers can assert the check had teeth.
std::size_t expect_degraded_sound(const Workload<float>& w,
                                  const std::vector<std::vector<float>>& results,
                                  const DegradedReport& report,
                                  const std::vector<rank_t>& dead_ranks) {
  std::map<key_t, float> totals;
  for (rank_t r = 0; r < w.out_sets.size(); ++r) {
    if (contains(report.inputs_lost, r)) continue;
    for (std::size_t p = 0; p < w.out_sets[r].size(); ++p) {
      totals[w.out_sets[r][p]] += w.out_values[r][p];
    }
  }
  EXPECT_EQ(results.size(), w.in_sets.size());
  std::size_t checked = 0;
  for (rank_t r = 0; r < w.in_sets.size(); ++r) {
    if (contains(dead_ranks, r)) {
      EXPECT_TRUE(results[r].empty()) << "dead rank " << r << " has a result";
      continue;
    }
    EXPECT_EQ(results[r].size(), w.in_sets[r].size()) << "machine " << r;
    for (std::size_t p = 0; p < w.in_sets[r].size(); ++p) {
      const key_t key = w.in_sets[r][p];
      if (report.covers(key) ||
          std::binary_search(report.lost_keys.begin(),
                             report.lost_keys.end(), key)) {
        continue;  // declared unreliable; nothing is promised here
      }
      const auto it = totals.find(key);
      const float expected = it == totals.end() ? 0.0f : it->second;
      EXPECT_EQ(results[r][p], expected)
          << "machine " << r << " position " << p << " index "
          << unhash_index(key);
      ++checked;
    }
  }
  return checked;
}

// ---- Invariant 1: no group death => bit-identical to the clean run ----

TEST(ChaosReplicated, TransientFaultsAndReplicaCrashesAreInvisible) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  std::uint64_t total_faults = 0;
  std::uint64_t total_recoveries = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto w = random_workload<float>(m, 64, 0.25, 0.4, 1000 + seed);

    // Reference: failure-free replicated run.
    Engine clean(m, 2);
    Allreduce clean_ar(&clean, topo);
    clean_ar.configure(w.in_sets, w.out_sets);
    const auto clean_results = clean_ar.reduce(w.out_values);

    // Chaotic run: transient faults everywhere plus up to three
    // single-replica crashes — one per distinct group, so no group dies.
    FaultPlan plan(m * 2, seed);
    FaultPlan::TransientRates rates;
    rates.drop = 0.08;
    rates.duplicate = 0.05;
    rates.delay = 0.05;
    plan.set_transient_rates(rates);
    const rank_t crashes = seed % 4;
    for (rank_t c = 0; c < crashes; ++c) {
      const rank_t victim = (seed + 2 * c) % m;  // distinct logical groups
      const rank_t replica = (seed + c) % 2;
      plan.crash_at_round(victim + replica * m, (seed + c) % 6);
    }
    FaultChannel<float> channel(&plan);
    Engine engine(m, 2);
    engine.set_fault_channel(&channel);
    Allreduce allreduce(&engine, topo);
    allreduce.configure(w.in_sets, w.out_sets);
    const auto results = allreduce.reduce(w.out_values);

    ASSERT_FALSE(engine.has_failed());
    EXPECT_EQ(results, clean_results);  // bit-identical
    const DegradedReport report = allreduce.degraded_report();
    EXPECT_FALSE(report.degraded);
    EXPECT_TRUE(report.deaths.empty());
    EXPECT_TRUE(report.lost_keys.empty());
    // Every total loss was detected and then promoted or force-delivered.
    const RecoveryStats& rec = engine.recovery_stats();
    EXPECT_EQ(rec.promotions, rec.detections);
    EXPECT_EQ(rec.group_deaths, 0u);
    const FaultStats& stats = plan.stats();
    total_faults += stats.dropped + stats.duplicated + stats.delayed;
    total_recoveries += rec.detections;
    EXPECT_EQ(stats.crashes, crashes);
  }
  // The sweep actually exercised the machinery.
  EXPECT_GT(total_faults, 100u);
  EXPECT_GT(total_recoveries, 0u);
}

// ---- Invariant 2: group death => sound degraded completion ----

TEST(ChaosReplicated, GroupDeadFromStartDegradesSoundly) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto w = random_workload<float>(m, 48, 0.2, 0.4, 2000 + seed);
    const rank_t g = seed % m;  // the doomed logical group

    FaultPlan plan(m * 2, seed);
    plan.failures().kill(g);
    plan.failures().kill(g + m);
    FaultChannel<float> channel(&plan);
    Engine engine(m, 2);
    engine.set_fault_channel(&channel);
    ASSERT_TRUE(engine.has_failed());
    Allreduce allreduce(&engine, topo);
    allreduce.configure(w.in_sets, w.out_sets);
    const auto results = allreduce.reduce(w.out_values);

    const DegradedReport report = allreduce.degraded_report();
    EXPECT_TRUE(report.degraded);
    EXPECT_TRUE(contains(report.lost_logical, g));
    EXPECT_TRUE(contains(report.lost_from_start, g));
    EXPECT_TRUE(contains(report.inputs_lost, g));
    EXPECT_FALSE(report.degraded_ranges.empty());
    EXPECT_GT(engine.recovery_stats().group_deaths, 0u);

    const std::size_t checked =
        expect_degraded_sound(w, results, report, {g});
    EXPECT_GT(checked, 0u) << "degraded ranges swallowed every key";

    // Exact mass pricing: the dead group's share of total input mass.
    double total = 0.0;
    double lost = 0.0;
    for (rank_t r = 0; r < m; ++r) {
      for (const float v : w.out_values[r]) {
        total += std::abs(static_cast<double>(v));
        if (r == g) lost += std::abs(static_cast<double>(v));
      }
    }
    EXPECT_DOUBLE_EQ(report.mass_lost_fraction, lost / total);

    // Loss accounting: a key contributed only by g must be declared lost or
    // sit inside a degraded range; a declared-lost key must have no
    // surviving contributor or sit inside a degraded range.
    std::set<key_t> alive_contributed;
    std::set<key_t> requested;
    for (rank_t r = 0; r < m; ++r) {
      if (r != g) {
        for (std::size_t p = 0; p < w.out_sets[r].size(); ++p) {
          alive_contributed.insert(w.out_sets[r][p]);
        }
        for (std::size_t p = 0; p < w.in_sets[r].size(); ++p) {
          requested.insert(w.in_sets[r][p]);
        }
      }
    }
    for (std::size_t p = 0; p < w.out_sets[g].size(); ++p) {
      const key_t key = w.out_sets[g][p];
      if (alive_contributed.contains(key) || !requested.contains(key)) {
        continue;
      }
      EXPECT_TRUE(std::binary_search(report.lost_keys.begin(),
                                     report.lost_keys.end(), key) ||
                  report.covers(key))
          << "orphaned key " << unhash_index(key) << " not declared";
    }
    for (const key_t key : report.lost_keys) {
      EXPECT_TRUE(!alive_contributed.contains(key) || report.covers(key))
          << "key " << unhash_index(key) << " lost despite a live contributor";
    }
    // Per-rank views agree with the global declaration.
    for (rank_t r = 0; r < m; ++r) {
      if (r == g) continue;
      for (const key_t key : report.lost_keys_per_rank[r]) {
        EXPECT_TRUE(report.covers(key) ||
                    std::binary_search(report.lost_keys.begin(),
                                       report.lost_keys.end(), key));
      }
    }
  }
}

TEST(ChaosReplicated, MidRunGroupDeathDegradesSoundly) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const struct {
    Phase phase;
    std::uint16_t layer;
    bool inputs_survive;  // did g's contribution complete a down merge?
  } kills[] = {
      {Phase::kReduceDown, 1, false},  // dies before sending anything
      {Phase::kReduceDown, 2, true},   // layer-1 partial already spread
      {Phase::kReduceUp, 2, true},
      {Phase::kReduceUp, 1, true},
  };
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto w = random_workload<float>(m, 48, 0.2, 0.4, 3000 + seed);
    const rank_t g = (seed * 3 + 1) % m;
    const auto& kill = kills[seed % 4];

    FaultPlan plan(m * 2, seed);
    plan.crash_at(g, kill.phase, kill.layer);
    plan.crash_at(g + m, kill.phase, kill.layer);
    FaultChannel<float> channel(&plan);
    Engine engine(m, 2);
    engine.set_fault_channel(&channel);
    Allreduce allreduce(&engine, topo);
    allreduce.configure(w.in_sets, w.out_sets);
    ASSERT_FALSE(engine.has_failed());  // config was clean
    const auto results = allreduce.reduce(w.out_values);

    ASSERT_TRUE(engine.has_failed());
    const DegradedReport report = allreduce.degraded_report();
    EXPECT_TRUE(report.degraded);
    EXPECT_TRUE(contains(report.lost_logical, g));
    EXPECT_FALSE(contains(report.lost_from_start, g));
    EXPECT_EQ(contains(report.inputs_lost, g), !kill.inputs_survive);
    EXPECT_TRUE(report.lost_keys.empty());  // config resolved every key
    ASSERT_FALSE(report.degraded_ranges.empty());

    const std::size_t checked =
        expect_degraded_sound(w, results, report, {g});
    EXPECT_GT(checked, 0u) << "degraded ranges swallowed every key";
  }
}

/// True iff some degraded range of `report` contains all of `range`.
bool range_declared(const DegradedReport& report, const KeyRange& range) {
  for (const KeyRange& d : report.degraded_ranges) {
    if (d.is_full()) return true;
    if (range.is_full() || range.lo < d.lo) continue;
    if (d.hi == 0 || (range.hi != 0 && range.hi <= d.hi)) return true;
  }
  return false;
}

// Combined configure+reduce carries values on the config letters, so a
// config-phase group death follows the down rule: dead at {config, 1} the
// group's inputs never left it; dead at {config, 2} its layer-1 pieces had
// already spread and only its layer-1 partial (node-layer 1 range) is lost.
TEST(ChaosReplicated, CombinedModeGroupDeathDegradesSoundly) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const struct {
    bool from_start;
    Phase phase;
    std::uint16_t layer;
    bool inputs_survive;
  } kills[] = {
      {false, Phase::kConfig, 1, false},
      {false, Phase::kConfig, 2, true},
      {false, Phase::kReduceUp, 2, true},
      {false, Phase::kReduceUp, 1, true},
      {true, Phase::kConfig, 1, false},
  };
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto w = random_workload<float>(m, 48, 0.2, 0.4, 4000 + seed);
    const rank_t g = (seed * 5 + 2) % m;
    const auto& kill = kills[seed % 5];

    FaultPlan plan(m * 2, seed);
    if (kill.from_start) {
      plan.failures().kill(g);
      plan.failures().kill(g + m);
    } else {
      plan.crash_at(g, kill.phase, kill.layer);
      plan.crash_at(g + m, kill.phase, kill.layer);
    }
    FaultChannel<float> channel(&plan);
    Engine engine(m, 2);
    engine.set_fault_channel(&channel);
    Allreduce allreduce(&engine, topo);
    const auto results =
        allreduce.reduce_with_config(w.in_sets, w.out_sets, w.out_values);

    ASSERT_TRUE(engine.has_failed());
    const DegradedReport report = allreduce.degraded_report();
    EXPECT_TRUE(report.degraded);
    EXPECT_TRUE(contains(report.lost_logical, g));
    EXPECT_EQ(contains(report.lost_from_start, g), kill.from_start);
    EXPECT_EQ(contains(report.inputs_lost, g), !kill.inputs_survive);
    ASSERT_FALSE(report.degraded_ranges.empty());
    // Combined rule: {up, i} loses node-layer i, every other record the
    // layer below its own (clamped at 1).
    for (const DeathRecord& d : report.deaths) {
      const std::uint16_t node_layer =
          d.phase == Phase::kReduceUp
              ? d.layer
              : static_cast<std::uint16_t>(std::max<int>(d.layer, 2) - 1);
      EXPECT_TRUE(range_declared(report, topo.key_range(node_layer, d.logical)))
          << "death at layer " << d.layer << " of group " << d.logical;
    }

    const std::size_t checked =
        expect_degraded_sound(w, results, report, {g});
    EXPECT_GT(checked, 0u) << "degraded ranges swallowed every key";
  }
}

TEST(ChaosReplicated, GroupDeathWithDegradedCompletionDisabledThrows) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  FaultPlan plan(m * 2);
  plan.failures().kill(2);
  plan.failures().kill(2 + m);
  FaultChannel<float> channel(&plan);
  Engine engine(m, 2);
  engine.set_fault_channel(&channel);
  RecoveryPolicy policy;
  policy.degraded_completion = false;
  engine.set_recovery_policy(policy);
  Allreduce allreduce(&engine, topo);
  const auto w = random_workload<float>(m, 48, 0.2, 0.4, 5);
  EXPECT_THROW(allreduce.configure(w.in_sets, w.out_sets), check_error);
}

// ---- Targeted recovery: every copy of one logical letter lost ----

TEST(ChaosReplicated, TotalCopyLossIsRecoveredBitIdentically) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 64, 0.25, 0.4, 77);

  Engine clean(m, 2);
  Allreduce clean_ar(&clean, topo);
  clean_ar.configure(w.in_sets, w.out_sets);
  const auto clean_results = clean_ar.reduce(w.out_values);

  // Drop all four physical copies of the first logical letter 0 -> 1
  // (2 sender replicas x 2 destination replicas).
  FaultPlan plan(m * 2);
  for (const rank_t src : {rank_t{0}, rank_t{0 + m}}) {
    for (const rank_t dst : {rank_t{1}, rank_t{1 + m}}) {
      FaultPlan::EdgeRule rule;
      rule.src = src;
      rule.dst = dst;
      rule.action = FaultAction::kDrop;
      rule.count = 1;
      plan.add_edge_rule(rule);
    }
  }
  FaultChannel<float> channel(&plan);
  Engine engine(m, 2);
  engine.set_fault_channel(&channel);
  Allreduce allreduce(&engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto results = allreduce.reduce(w.out_values);

  EXPECT_EQ(results, clean_results);
  EXPECT_EQ(plan.stats().dropped, 4u);
  const RecoveryStats& rec = engine.recovery_stats();
  EXPECT_EQ(rec.detections, 1u);
  EXPECT_EQ(rec.promotions, 1u);
  EXPECT_GE(rec.retries, 1u);
  EXPECT_EQ(rec.forced, 0u);  // the rules were spent; retry 1 delivered
  EXPECT_GE(engine.race_stats().drops, 4u);
  EXPECT_FALSE(allreduce.degraded_report().degraded);
}

TEST(ChaosReplicated, UnrecoverableEdgeIsForceDelivered) {
  // An edge rule that also eats every recovery retry: the final attempt
  // falls back to the reliable path, so the result is still exact.
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 64, 0.25, 0.4, 78);

  Engine clean(m, 2);
  Allreduce clean_ar(&clean, topo);
  clean_ar.configure(w.in_sets, w.out_sets);
  const auto clean_results = clean_ar.reduce(w.out_values);

  FaultPlan plan(m * 2);
  for (const rank_t src : {rank_t{0}, rank_t{0 + m}}) {
    for (const rank_t dst : {rank_t{1}, rank_t{1 + m}}) {
      FaultPlan::EdgeRule rule;
      rule.src = src;
      rule.dst = dst;
      rule.action = FaultAction::kDrop;
      rule.count = 1000;  // never expires
      plan.add_edge_rule(rule);
    }
  }
  FaultChannel<float> channel(&plan);
  Engine engine(m, 2);
  engine.set_fault_channel(&channel);
  Allreduce allreduce(&engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto results = allreduce.reduce(w.out_values);

  EXPECT_EQ(results, clean_results);
  const RecoveryStats& rec = engine.recovery_stats();
  EXPECT_GT(rec.forced, 0u);
  EXPECT_EQ(rec.promotions, rec.detections);
}

// ---- Postmortem coverage: the black box sees the chaos timeline ----

// A scripted FaultPlan with deterministic edge rules, observed end to end:
// the flight recorder must hold every injected fault strictly before the
// recovery that answered it, and the postmortem dump must serialize that
// timeline in sequence order with the fault/recovery codes named.
TEST(ChaosReplicated, PostmortemDumpOrdersFaultsBeforeRecovery) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 64, 0.25, 0.4, 77);

  // Drop all four physical copies of logical letter 0 -> 1, exactly as
  // TotalCopyLossIsRecoveredBitIdentically does, so one recovery cycle is
  // guaranteed and fully deterministic.
  FaultPlan plan(m * 2);
  for (const rank_t src : {rank_t{0}, rank_t{0 + m}}) {
    for (const rank_t dst : {rank_t{1}, rank_t{1 + m}}) {
      FaultPlan::EdgeRule rule;
      rule.src = src;
      rule.dst = dst;
      rule.action = FaultAction::kDrop;
      rule.count = 1;
      plan.add_edge_rule(rule);
    }
  }
  FaultChannel<float> channel(&plan);
  Engine engine(m, 2);
  engine.set_fault_channel(&channel);

  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(m * 2, 256, 1024);
  obs::TelemetryObserver::Options topt;
  topt.metrics = &metrics;
  topt.recorder = &recorder;
  obs::TelemetryObserver observer(/*tracer=*/nullptr, m * 2, topt);
  engine.set_observer(&observer);

  Allreduce allreduce(&engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  (void)allreduce.reduce(w.out_values);
  EXPECT_EQ(plan.stats().dropped, 4u);

  // In the recorder: all four faults precede the first recovery event.
  std::uint64_t fault_events = 0;
  std::uint64_t max_fault_seq = 0;
  std::uint64_t min_recovery_seq = ~std::uint64_t{0};
  for (const obs::FlightEvent& e : recorder.merged_events()) {
    if (e.kind == obs::FlightEventKind::kFault) {
      ++fault_events;
      max_fault_seq = std::max(max_fault_seq, e.seq);
    }
    if (e.kind == obs::FlightEventKind::kRecovery) {
      min_recovery_seq = std::min(min_recovery_seq, e.seq);
    }
  }
  EXPECT_EQ(fault_events, 4u);
  ASSERT_NE(min_recovery_seq, ~std::uint64_t{0}) << "no recovery recorded";
  EXPECT_LT(max_fault_seq, min_recovery_seq);

  // In the dump: the serialized events array preserves that order, and the
  // fault/recovery codes come out by name.
  obs::PostmortemInputs inputs;
  inputs.reason = "fault-injection";
  inputs.detail = "scripted total copy loss on edge 0->1";
  inputs.recorder = &recorder;
  inputs.metrics = &metrics;
  std::ostringstream out;
  obs::write_postmortem(out, inputs);
  const std::string json = out.str();
  const std::size_t first_fault = json.find("\"kind\":\"fault\"");
  const std::size_t first_recovery = json.find("\"kind\":\"recovery\"");
  ASSERT_NE(first_fault, std::string::npos);
  ASSERT_NE(first_recovery, std::string::npos);
  EXPECT_LT(first_fault, first_recovery);
  EXPECT_NE(json.find("\"code_name\":\"drop\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.faults.dropped\":4"), std::string::npos);

  // And the renderer reads it back as a timeline.
  const std::string text = obs::render_postmortem(json);
  EXPECT_LT(text.find("drop"), text.find("retry"));
}

// ---- The shared hook on the flat engines ----

TEST(ChaosBsp, DuplicatesAreDeliveredOnceAndChargedTwice) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 64, 0.25, 0.4, 17);

  Trace clean_trace;
  ParallelBspEngine<float> clean(m, 1, nullptr, &clean_trace);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> clean_ar(
      &clean, topo);
  clean_ar.configure(w.in_sets, w.out_sets);
  const auto clean_results = clean_ar.reduce(w.out_values);

  FaultPlan plan(m, 5);
  FaultPlan::TransientRates rates;
  rates.duplicate = 0.3;  // duplication only: results must stay exact
  plan.set_transient_rates(rates);
  FaultChannel<float> channel(&plan);
  Trace trace;
  ParallelBspEngine<float> engine(m, 1, nullptr, &trace);
  engine.set_fault_channel(&channel);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto results = allreduce.reduce(w.out_values);

  EXPECT_EQ(results, clean_results);
  EXPECT_GT(plan.stats().duplicated, 0u);
  // Each duplicate pays the wire twice.
  EXPECT_EQ(trace.num_messages(),
            clean_trace.num_messages() + plan.stats().duplicated);
}

TEST(ChaosBsp, DelayedLetterIsSupersededByTheNextRun) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 64, 0.25, 0.4, 19);

  FaultPlan plan(m);
  FaultChannel<float> channel(&plan);
  ParallelBspEngine<float> engine(m, 1);
  engine.set_fault_channel(&channel);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);

  // Armed only after configuration so the held-back letter is a value
  // letter of the down pass (a delayed config piece would change the
  // union layouts instead).
  FaultPlan::EdgeRule rule;
  rule.src = 0;
  rule.dst = topo.group(1, 0)[1];  // a layer-1 neighbor of rank 0
  rule.action = FaultAction::kDelay;
  rule.delay_rounds = 1;
  rule.count = 1;
  plan.add_edge_rule(rule);

  // Run 1: one letter of the down pass is held back; its round finishes
  // without it, so the results of this run are not trusted.
  (void)allreduce.reduce(w.out_values);
  EXPECT_EQ(plan.stats().delayed, 1u);
  EXPECT_EQ(channel.pending_delayed(), 1u);

  // Run 2 revisits the same {phase, layer}: the stale copy meets a fresh
  // letter from the same sender and is discarded, so run 2 is exact.
  const auto results = allreduce.reduce(w.out_values);
  EXPECT_EQ(channel.pending_delayed(), 0u);
  EXPECT_EQ(channel.stale(), 1u);
  EXPECT_EQ(channel.redelivered(), 0u);
  testing::expect_matches_oracle<float>(w, results);
}

TEST(ChaosParallel, DuplicateOnlyRatesStayExact) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 64, 0.25, 0.4, 23);

  FaultPlan plan(m, 9);
  FaultPlan::TransientRates rates;
  rates.duplicate = 0.3;
  plan.set_transient_rates(rates);
  FaultChannel<float> channel(&plan);
  ParallelBspEngine<float> engine(m);
  engine.set_fault_channel(&channel);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(&engine,
                                                                    topo);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto results = allreduce.reduce(w.out_values);
  EXPECT_GT(plan.stats().duplicated, 0u);
  testing::expect_matches_oracle<float>(w, results);
}

}  // namespace
}  // namespace kylix
