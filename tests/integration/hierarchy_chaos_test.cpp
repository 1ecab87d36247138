// Hierarchy under chaos (DESIGN §13): the two-tier plan must degrade
// exactly like its flat twin. Three layers of identity, each on the plain
// engine and on the replicated engine:
//
//   1. cores-per-machine == 1 under chaos (duplicate storms + a rank dead
//      from the start): results and DegradedReports are identical to the
//      flat topology's — the degenerate hierarchy *is* the flat run.
//   2. c > 1 under duplicate-only chaos, nobody dead: bit-identical to the
//      flat-expanded topology {c, d_1, d_2}, and both reports are exact.
//   3. c > 1 with a non-leader member dead from the start: the member is a
//      compile-time exclusion from its host union, so the hierarchical run
//      is *exact* over the survivors — bit-identical to the flat-expanded
//      run wherever the flat report promises exactness, and strictly no
//      more degraded than it (the flat replicated engine declares
//      conservative key ranges for the dead group; the hierarchical
//      compile never even routes through it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
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

using testing::random_workload;
using testing::Workload;

void expect_reports_equal(const DegradedReport& a, const DegradedReport& b) {
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.lost_logical, b.lost_logical);
  EXPECT_EQ(a.lost_from_start, b.lost_from_start);
  EXPECT_EQ(a.inputs_lost, b.inputs_lost);
  EXPECT_EQ(a.lost_keys, b.lost_keys);
  EXPECT_EQ(a.lost_keys_per_rank, b.lost_keys_per_rank);
  EXPECT_DOUBLE_EQ(a.mass_lost_fraction, b.mass_lost_fraction);
  ASSERT_EQ(a.degraded_ranges.size(), b.degraded_ranges.size());
  for (std::size_t i = 0; i < a.degraded_ranges.size(); ++i) {
    EXPECT_EQ(a.degraded_ranges[i].lo, b.degraded_ranges[i].lo);
    EXPECT_EQ(a.degraded_ranges[i].hi, b.degraded_ranges[i].hi);
  }
}

struct RunOutcome {
  std::vector<std::vector<float>> results;
  DegradedReport report;
};

/// One chaotic run of `Engine` over `topo`: duplicate-only transient rates
/// (duplicates are delivered once, so an exact run stays exact) plus
/// optionally one logical rank fully dead from the start.
template <typename Engine>
RunOutcome chaotic_run(const Topology& topo, const Workload<float>& w,
                       std::uint64_t seed, rank_t dead, bool kill,
                       std::uint32_t replicas) {
  const rank_t m = topo.num_machines();
  const rank_t physical = m * replicas;
  FaultPlan plan(physical, seed);
  FaultPlan::TransientRates rates;
  rates.duplicate = 0.2;
  plan.set_transient_rates(rates);
  if (kill) {
    // Kill every physical replica of the logical victim so replicated
    // engines observe a true group death, matching the flat engines'
    // single dead rank.
    for (rank_t p = dead; p < physical; p += m) plan.failures().kill(p);
  }
  FaultChannel<float> channel(&plan);
  auto engine = [&] {
    if constexpr (std::is_same_v<Engine, ReplicatedBsp<float>>) {
      return std::make_unique<Engine>(m, replicas);
    } else {
      return std::make_unique<Engine>(m);
    }
  }();
  engine->set_fault_channel(&channel);
  SparseAllreduce<float, OpSum, Engine> allreduce(engine.get(), topo);
  allreduce.configure(w.in_sets, w.out_sets);
  RunOutcome out;
  out.results = allreduce.reduce(w.out_values);
  EXPECT_GT(plan.stats().duplicated, 0u) << "chaos never fired";
  out.report = allreduce.degraded_report();
  return out;
}

/// Exactness over survivors: every alive requester's value equals the
/// brute-force sum excluding the dead ranks' contributions.
void expect_exact_over_survivors(const Workload<float>& w,
                                 const std::vector<std::vector<float>>& results,
                                 const std::vector<rank_t>& dead) {
  std::map<key_t, float> totals;
  for (rank_t r = 0; r < w.out_sets.size(); ++r) {
    if (std::find(dead.begin(), dead.end(), r) != dead.end()) continue;
    for (std::size_t p = 0; p < w.out_sets[r].size(); ++p) {
      totals[w.out_sets[r][p]] += w.out_values[r][p];
    }
  }
  ASSERT_EQ(results.size(), w.in_sets.size());
  for (rank_t r = 0; r < w.in_sets.size(); ++r) {
    if (std::find(dead.begin(), dead.end(), r) != dead.end()) {
      EXPECT_TRUE(results[r].empty()) << "dead rank " << r << " has a result";
      continue;
    }
    ASSERT_EQ(results[r].size(), w.in_sets[r].size()) << "machine " << r;
    for (std::size_t p = 0; p < w.in_sets[r].size(); ++p) {
      const auto it = totals.find(w.in_sets[r][p]);
      EXPECT_EQ(results[r][p], it == totals.end() ? 0.0f : it->second)
          << "machine " << r << " position " << p;
    }
  }
}

template <typename Engine>
void sweep(std::uint32_t replicas) {
  // 1. The degenerate hierarchy is the flat run, chaos and deaths included.
  {
    const Topology flat({4, 2});
    const Topology one({4, 2}, 1);
    const rank_t m = flat.num_machines();
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      SCOPED_TRACE("c=1 seed " + std::to_string(seed));
      const auto w = random_workload<float>(m, 96, 0.25, 0.4, 4000 + seed);
      const bool kill = (seed % 2) == 1;
      const rank_t dead = seed % m;
      const auto f = chaotic_run<Engine>(flat, w, seed, dead, kill, replicas);
      const auto h = chaotic_run<Engine>(one, w, seed, dead, kill, replicas);
      EXPECT_EQ(h.results, f.results);
      expect_reports_equal(h.report, f.report);
    }
  }

  const Topology hier({2, 2}, 2);  // 8 ranks, 4 two-core hosts
  const Topology flat({2, 2, 2});  // the flat expansion over the same ranks
  const rank_t m = hier.num_machines();
  ASSERT_EQ(m, flat.num_machines());

  // 2. c > 1, transient chaos only: both runs are exact and bit-identical.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    const auto w = random_workload<float>(m, 96, 0.25, 0.4, 5000 + seed);
    const auto f =
        chaotic_run<Engine>(flat, w, seed, /*dead=*/0, false, replicas);
    const auto h =
        chaotic_run<Engine>(hier, w, seed, /*dead=*/0, false, replicas);
    EXPECT_EQ(h.results, f.results);
    EXPECT_FALSE(h.report.degraded);
    expect_reports_equal(h.report, f.report);
    testing::expect_matches_oracle<float>(w, h.results);
  }

  // 3. c > 1, a non-leader member dead from the start: compile-time
  // exclusion — the hierarchical run is exact over survivors and agrees
  // with the flat run everywhere the flat report promises exactness.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE("death seed " + std::to_string(seed));
    const auto w = random_workload<float>(m, 96, 0.25, 0.4, 6000 + seed);
    const rank_t dead = 2 * (seed % hier.num_hosts()) + 1;
    ASSERT_FALSE(hier.is_leader(dead));
    const auto f = chaotic_run<Engine>(flat, w, seed, dead, true, replicas);
    const auto h = chaotic_run<Engine>(hier, w, seed, dead, true, replicas);

    expect_exact_over_survivors(w, h.results, {dead});
    // The hierarchical report is never *more* degraded than the flat one.
    EXPECT_LE(h.report.degraded_ranges.size(),
              f.report.degraded_ranges.size());
    EXPECT_LE(h.report.lost_keys.size(), f.report.lost_keys.size());
    ASSERT_EQ(h.results.size(), f.results.size());
    for (rank_t r = 0; r < m; ++r) {
      if (r == dead) {
        EXPECT_TRUE(f.results[r].empty());
        EXPECT_TRUE(h.results[r].empty());
        continue;
      }
      ASSERT_EQ(h.results[r].size(), f.results[r].size());
      // Agreement wherever the flat run *promises* exact values. Only the
      // replicated engine tracks deaths into its report; the plain engines
      // report blind (non-degraded), promising nothing about the keys the
      // flat butterfly silently lost through its dead node.
      if (!f.report.degraded) continue;
      for (std::size_t p = 0; p < w.in_sets[r].size(); ++p) {
        const key_t key = w.in_sets[r][p];
        if (f.report.covers(key) ||
            std::binary_search(f.report.lost_keys.begin(),
                               f.report.lost_keys.end(), key)) {
          continue;
        }
        EXPECT_EQ(h.results[r][p], f.results[r][p])
            << "machine " << r << " position " << p;
      }
    }
  }
}

TEST(HierarchyChaos, ParallelBspMatchesFlatUnderChaos) {
  sweep<ParallelBspEngine<float>>(1);
}

TEST(HierarchyChaos, ReplicatedBspMatchesFlatUnderChaos) {
  sweep<ReplicatedBsp<float>>(2);
}

}  // namespace
}  // namespace kylix
