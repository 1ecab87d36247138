#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <sstream>
#include <string>

#include "cluster/fault_plan.hpp"
#include "cluster/netmodel.hpp"
#include "cluster/timing.hpp"
#include "comm/fault_channel.hpp"
#include "comm/replicated.hpp"
#include "core/allreduce.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using Engine = ReplicatedBsp<float>;
using Allreduce = SparseAllreduce<float, OpSum, Engine>;
using testing::random_workload;

TEST(ReplicatedAllreduce, NoFailuresMatchesOracle) {
  const Topology topo({4, 2});
  Engine engine(topo.num_machines(), 2);
  Allreduce allreduce(&engine, topo);
  const auto w = random_workload<float>(topo.num_machines(), 150, 0.2, 0.4,
                                        11);
  allreduce.configure(w.in_sets, w.out_sets);
  testing::expect_matches_oracle<float>(w, allreduce.reduce(w.out_values));
}

class ReplicatedFailureTest : public ::testing::TestWithParam<rank_t> {};

TEST_P(ReplicatedFailureTest, SurvivesKDistinctGroupFailures) {
  // Table I's setup: 8x4 logical network (32 nodes), replication 2 (64
  // physical), 0..3 dead nodes; results must stay exact.
  const rank_t failures = GetParam();
  const Topology topo({8, 4});
  const rank_t logical = topo.num_machines();
  FailureModel failure_model(logical * 2);
  // Kill nodes in distinct replica groups (worst case short of group loss).
  for (rank_t f = 0; f < failures; ++f) {
    failure_model.kill(f * 3 + (f % 2) * logical);
  }
  Engine engine(logical, 2, &failure_model);
  ASSERT_FALSE(engine.has_failed());
  Allreduce allreduce(&engine, topo);
  const auto w = random_workload<float>(logical, 200, 0.15, 0.3,
                                        100 + failures);
  allreduce.configure(w.in_sets, w.out_sets);
  testing::expect_matches_oracle<float>(w, allreduce.reduce(w.out_values));
}

INSTANTIATE_TEST_SUITE_P(DeadNodes, ReplicatedFailureTest,
                         ::testing::Values(0, 1, 2, 3, 5));

TEST(ReplicatedAllreduce, RandomFailuresSurviveWhileGroupsLive) {
  const Topology topo({4, 4});
  const rank_t logical = topo.num_machines();
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const FailureModel failure_model =
        FailureModel::random_failures(logical * 2, 4, seed);
    Engine engine(logical, 2, &failure_model);
    if (engine.has_failed()) continue;  // whole group died: protocol void
    Allreduce allreduce(&engine, topo);
    const auto w = random_workload<float>(logical, 100, 0.2, 0.4, seed);
    allreduce.configure(w.in_sets, w.out_sets);
    testing::expect_matches_oracle<float>(w,
                                          allreduce.reduce(w.out_values));
  }
}

TEST(ReplicatedAllreduce, WholeGroupDeadIsDetected) {
  const Topology topo({2, 2});
  FailureModel failure_model(8);
  failure_model.kill(1);
  failure_model.kill(1 + 4);  // both replicas of logical node 1
  Engine engine(4, 2, &failure_model);
  EXPECT_TRUE(engine.has_failed());
  EXPECT_TRUE(engine.is_dead(1));
  EXPECT_FALSE(engine.is_dead(0));
}

TEST(ReplicatedBsp, ReplicaFanoutCostsSendersAndWinningReceives) {
  // One logical letter 0 -> 1 at replication 2, everyone alive: 4 physical
  // copies traced (2 senders x 2 destinations); each physical destination
  // pays for exactly one winning copy.
  Trace trace;
  NetworkModel net;
  TimingAccumulator timing(4, net, ComputeModel{}, 1);
  ReplicatedBsp<float> engine(2, 2, nullptr, &trace, &timing);
  engine.round(
      Phase::kConfig, 1,
      [&](rank_t r) {
        std::vector<Letter<float>> letters;
        if (r == 0) {
          Letter<float> letter;
          letter.src = 0;
          letter.dst = 1;
          letter.packet.values = {1.0f};
          letters.push_back(std::move(letter));
        }
        return letters;
      },
      [&](rank_t) {
        return std::vector<rank_t>{0};
      },
      [&](rank_t r, std::vector<Letter<float>>&& inbox) {
        if (r == 1) {
          ASSERT_EQ(inbox.size(), 1u);
          EXPECT_EQ(inbox[0].packet.values[0], 1.0f);
        }
      });
  EXPECT_EQ(trace.num_messages(), 4u);
}

TEST(ReplicatedBsp, SelfMessagesCostNothing) {
  Trace trace;
  ReplicatedBsp<float> engine(2, 2, nullptr, &trace);
  engine.round(
      Phase::kConfig, 1,
      [&](rank_t r) {
        std::vector<Letter<float>> letters(1);
        letters[0].src = r;
        letters[0].dst = r;
        return letters;
      },
      [&](rank_t r) {
        return std::vector<rank_t>{r};
      },
      [&](rank_t, std::vector<Letter<float>>&& inbox) {
        EXPECT_EQ(inbox.size(), 1u);
      });
  EXPECT_EQ(trace.num_messages(), 0u);
}

TEST(ReplicatedBsp, DeadSenderReplicaHalvesTheCopies) {
  Trace trace;
  FailureModel failures(4);
  failures.kill(2);  // replica 1 of logical 0
  ReplicatedBsp<float> engine(2, 2, &failures, &trace);
  engine.round(
      Phase::kConfig, 1,
      [&](rank_t r) {
        std::vector<Letter<float>> letters;
        if (r == 0) {
          letters.resize(1);
          letters[0].src = 0;
          letters[0].dst = 1;
        }
        return letters;
      },
      [&](rank_t) {
        return std::vector<rank_t>{0};
      },
      [&](rank_t, std::vector<Letter<float>>&&) {});
  EXPECT_EQ(trace.num_messages(), 2u);  // 1 alive sender x 2 destinations
}

TEST(ReplicatedBsp, ChargeComputeHitsAllAliveReplicas) {
  NetworkModel net;
  net.base_latency_s = 0;
  TimingAccumulator timing(4, net, ComputeModel{}, 1);
  ReplicatedBsp<float> engine(2, 2, nullptr, nullptr, &timing);
  engine.charge_compute(Phase::kConfig, 1, 0, 2.0);
  // Both replicas of logical 0 do the work; the round is their max.
  EXPECT_DOUBLE_EQ(timing.times().config, 2.0);
}

TEST(ReplicatedBsp, FailureModelMustCoverPhysicalRanks) {
  FailureModel small(7);  // one short of the 4x2 physical network
  EXPECT_THROW(ReplicatedBsp<float>(4, 2, &small), check_error);
  FailureModel exact(8);
  ReplicatedBsp<float> ok(4, 2, &exact);  // must not throw
  EXPECT_EQ(ok.num_physical(), 8u);
}

TEST(ReplicatedBsp, MidRunKillsChargeDropsToDeadReplicas) {
  // RaceStats accounting across a kill sequence: every copy to a dead
  // physical destination is a drop, every surviving destination pays one
  // win and cancels the rest.
  FailureModel failures(4);
  ReplicatedBsp<float> engine(2, 2, &failures);
  const auto send_once = [&] {
    engine.round(
        Phase::kConfig, 1,
        [&](rank_t r) {
          std::vector<Letter<float>> letters;
          if (r == 0) {
            letters.resize(1);
            letters[0].src = 0;
            letters[0].dst = 1;
            letters[0].packet.values = {2.0f};
          }
          return letters;
        },
        [&](rank_t) {
          return std::vector<rank_t>{0};
        },
        [&](rank_t, std::vector<Letter<float>>&&) {});
  };

  // All alive: 2 senders x 2 destination replicas; each destination wins
  // one race and cancels one copy.
  send_once();
  EXPECT_EQ(engine.race_stats().wins, 2u);
  EXPECT_EQ(engine.race_stats().losses, 2u);
  EXPECT_EQ(engine.race_stats().drops, 0u);

  // Kill replica 1 of logical 1 (physical 3): both copies to it drop.
  failures.kill(3);
  send_once();
  EXPECT_EQ(engine.race_stats().wins, 3u);
  EXPECT_EQ(engine.race_stats().losses, 3u);
  EXPECT_EQ(engine.race_stats().drops, 2u);

  // Also kill replica 1 of logical 0 (physical 2): one sender remains, so
  // the dead destination eats one more drop and the alive one races alone.
  failures.kill(2);
  send_once();
  EXPECT_EQ(engine.race_stats().wins, 4u);
  EXPECT_EQ(engine.race_stats().losses, 3u);
  EXPECT_EQ(engine.race_stats().drops, 3u);
  EXPECT_EQ(engine.dropped_messages(), 3u);
}

TEST(ReplicatedAllreduce, MidRunReplicaKillStaysExactAndCountsDrops) {
  // A single replica dying between reduce() iterations must not perturb
  // values (the survivor carries the group) but must surface in RaceStats.
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  FailureModel failures(m * 2);
  Engine engine(m, 2, &failures);
  Allreduce allreduce(&engine, topo);
  const auto w = random_workload<float>(m, 120, 0.2, 0.4, 31);
  allreduce.configure(w.in_sets, w.out_sets);
  testing::expect_matches_oracle<float>(w, allreduce.reduce(w.out_values));
  const std::uint64_t drops_before = engine.race_stats().drops;

  failures.kill(3 + m);  // replica 1 of logical 3
  ASSERT_FALSE(engine.has_failed());
  testing::expect_matches_oracle<float>(w, allreduce.reduce(w.out_values));
  EXPECT_GT(engine.race_stats().drops, drops_before)
      << "copies to the dead replica were not accounted";
}

TEST(ReplicatedBsp, ReplicationOneIsPlainBsp) {
  const Topology topo({2, 2});
  Engine engine(topo.num_machines(), 1);
  Allreduce allreduce(&engine, topo);
  const auto w = random_workload<float>(topo.num_machines(), 80, 0.3, 0.5,
                                        13);
  allreduce.configure(w.in_sets, w.out_sets);
  testing::expect_matches_oracle<float>(w, allreduce.reduce(w.out_values));
}

// ---- §V pinned: two chaos runs recorded before replication became a
// delivery policy of the pooled engine, asserted at 1 and 4 threads ----

/// FNV-1a over 64-bit words: order-sensitive digests for the golden.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

std::string hex_of(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

template <typename T>
std::string list_of(const std::vector<T>& v) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < v.size(); ++i) out << (i ? " " : "") << v[i];
  out << "]";
  return out.str();
}

/// Digests every wire and recovery hook in the order it fires (on_produce
/// carries host time, so it stays out of the golden).
struct HookDigest : EngineObserver {
  Digest d;
  std::uint64_t hooks = 0;
  void note(std::uint64_t kind, const MsgEvent& e, std::uint64_t extra) {
    ++hooks;
    d.add(kind);
    d.add(static_cast<std::uint64_t>(e.phase));
    d.add(e.layer);
    d.add(e.src);
    d.add(e.dst);
    d.add(e.bytes);
    d.add(extra);
  }
  void on_round_begin(Phase phase, std::uint16_t layer) override {
    note(1, MsgEvent{phase, layer, 0, 0, 0}, 0);
  }
  void on_message(const MsgEvent& e) override { note(2, e, 0); }
  void on_drop(const MsgEvent& e) override { note(3, e, 0); }
  void on_fault(const MsgEvent& e, FaultAction a) override {
    note(4, e, static_cast<std::uint64_t>(a));
  }
  void on_recovery(const RecoveryEvent& e) override {
    note(5, MsgEvent{e.phase, e.layer, e.src, e.dst, 0},
         static_cast<std::uint64_t>(e.action) * 100 + e.attempt);
  }
  void on_redelivery(const MsgEvent& e, bool stale) override {
    note(6, e, stale);
  }
  void on_round_end(Phase phase, std::uint16_t layer) override {
    note(7, MsgEvent{phase, layer, 0, 0, 0}, 0);
  }
};

struct GoldenScenario {
  Topology topo;
  std::uint64_t seed;
  bool group_death;  ///< whole replica group 9 crashes mid-run
};

/// Everything §V observable about one replicated chaos run, as text:
/// result bit patterns and the trace (digests in order), the modeled
/// config/reduce/intra times as hex floats, the race and recovery
/// counters, the death records and the DegradedReport.
std::string chaos_run_summary(const GoldenScenario& s, unsigned threads) {
  const Topology& topo = s.topo;
  const rank_t m = topo.num_machines();
  auto w = random_workload<float>(m, 160, 0.25, 0.4, s.seed);
  for (auto& values : w.out_values) {
    // Non-integer values: every float sum depends on combine order.
    for (float& v : values) v = v * 0.1f + 1.0f / 3.0f;
  }
  FaultPlan plan(2 * m, s.seed);
  FaultPlan::TransientRates rates;
  rates.drop = 0.2;
  rates.duplicate = 0.1;
  rates.delay = 0.15;
  plan.set_transient_rates(rates);
  plan.crash_at(3, Phase::kReduceDown, 2);  // one replica of logical 3
  if (s.group_death) {
    plan.crash_at(9, Phase::kReduceUp, 2);
    plan.crash_at(9 + m, Phase::kReduceUp, 2);
  }
  FaultChannel<float> channel(&plan);
  const NetworkModel net = NetworkModel::ec2_like();
  const ComputeModel compute;
  Trace trace;
  TimingAccumulator timing(2 * m, net, compute, 16);
  Engine engine(m, 2, nullptr, &trace, &timing, threads);
  engine.set_fault_channel(&channel);
  HookDigest hooks;
  engine.set_observer(&hooks);
  Allreduce allreduce(&engine, topo, &compute);
  allreduce.set_network(&net);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto results = allreduce.reduce(w.out_values);

  std::ostringstream out;
  Digest rd;
  std::size_t values = 0;
  for (const auto& r : results) {
    rd.add(r.size());
    for (const float v : r) rd.add(std::bit_cast<std::uint32_t>(v));
    values += r.size();
  }
  out << "results " << values << " " << std::hex << rd.h << std::dec << "\n";
  Digest td;
  for (const MsgEvent& e : trace.events()) {
    td.add(static_cast<std::uint64_t>(e.phase));
    td.add(e.layer);
    td.add(e.src);
    td.add(e.dst);
    td.add(e.bytes);
  }
  out << "trace " << trace.num_messages() << " " << std::hex << td.h
      << std::dec << "\n";
  out << "hooks " << hooks.hooks << " " << std::hex << hooks.d.h << std::dec
      << "\n";
  const auto t = timing.times();
  out << "times " << hex_of(t.config) << " " << hex_of(t.reduce()) << " "
      << hex_of(t.intra_config) << " " << hex_of(t.intra()) << "\n";
  const auto& races = engine.race_stats();
  out << "races " << races.wins << " " << races.losses << " " << races.drops
      << "\n";
  const RecoveryStats& rec = engine.recovery_stats();
  out << "recovery " << rec.detections << " " << rec.retries << " "
      << rec.promotions << " " << rec.forced << " " << rec.group_deaths
      << "\n";
  out << "deaths";
  for (const DeathRecord& d : engine.death_records()) {
    out << " " << phase_name(d.phase) << "/" << d.layer << "/" << d.logical;
  }
  out << "\n";
  const DegradedReport rep = allreduce.degraded_report();
  out << "report " << rep.degraded << " " << list_of(rep.lost_logical) << " "
      << list_of(rep.lost_from_start) << " " << list_of(rep.inputs_lost)
      << " " << hex_of(rep.mass_lost_fraction) << "\n";
  out << "ranges";
  for (const KeyRange& r : rep.degraded_ranges) {
    out << " " << std::hex << r.lo << "-" << r.hi << std::dec;
  }
  out << "\n";
  Digest kd;
  for (const key_t k : rep.lost_keys) kd.add(k);
  for (const auto& per_rank : rep.lost_keys_per_rank) {
    kd.add(per_rank.size());
    for (const key_t k : per_rank) kd.add(k);
  }
  out << "lost_keys " << rep.lost_keys.size() << " " << std::hex << kd.h
      << std::dec << "\n";
  out << "faults " << plan.stats().dropped << " " << plan.stats().duplicated
      << " " << plan.stats().delayed << " " << plan.stats().crashes << "\n";
  return out.str();
}

// Recorded from the serial replicated engine. Flat {4, 4}: transient
// drops, duplicates and delays that force recoveries, one replica of
// logical 3 crashing at {down, 2}, and group 9 dying at {up, 2}.
constexpr const char* kFlatGolden =
    "results 969 9cb188dbc5b775e0\n"
    "trace 1226 41fd1361fec68131\n"
    "hooks 2033 679e4cbc35dfc672\n"
    "times 0x1.f16e181670ee4p-8 0x1.003c3a40a7852p-6 0x0p+0 0x0p+0\n"
    "races 459 399 252\n"
    "recovery 8 18 8 0 2\n"
    "deaths reduce-up/2/9 reduce-up/1/9\n"
    "report 1 [9] [] [] 0x1.d42141906b83fp-5\n"
    "ranges 4000000000000000-8000000000000000\n"
    "lost_keys 0 c01d6c0ea8f4d450\n"
    "faults 215 110 184 3\n";

// Two-tier {2, 4} over 2-core hosts: the same faults without the group
// death, so the intra tier runs (and is priced) on every host.
constexpr const char* kHierGolden =
    "results 1008 b5580ffcdf6c0c9e\n"
    "trace 422 3dbf6f46b40ced14\n"
    "hooks 705 9586d609e5d06d43\n"
    "times 0x1.62fef8806393dp-8 0x1.4b989a905ed7ap-7 "
    "0x1.e99d765656dd2p-19 0x1.118450a0f115ap-17\n"
    "races 168 131 85\n"
    "recovery 2 2 2 0 0\n"
    "deaths\n"
    "report 0 [] [] [] 0x0p+0\n"
    "ranges\n"
    "lost_keys 0 14650fb0739d0383\n"
    "faults 85 36 59 1\n";

TEST(ReplicatedGolden, FlatChaosRunMatchesTheRecordedRun) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(chaos_run_summary({Topology({4, 4}), 2021, true}, threads),
              kFlatGolden);
  }
}

TEST(ReplicatedGolden, HierarchicalChaosRunMatchesTheRecordedRun) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(chaos_run_summary({Topology({2, 4}, 2), 2022, false}, threads),
              kHierGolden);
  }
}

}  // namespace
}  // namespace kylix
