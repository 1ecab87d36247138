// Plan/executor split (ISSUE: compiled CollectivePlan). Covers the three
// contracts the refactor promises:
//
//   1. Replaying a compiled plan — in the compiling allreduce or adopted by
//      another (even across engines and value types) — is bit-identical to
//      configure()+reduce(), including under FaultPlan schedules with
//      surviving replicas.
//   2. reduce_strided(k) is bit-identical to k independent reduce() calls,
//      component by component.
//   3. PlanCache keys plans by fingerprint with LRU eviction and exact
//      hit/miss/evict accounting.
#include "core/plan.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "cluster/failure.hpp"
#include "cluster/fault_plan.hpp"
#include "comm/fault_channel.hpp"
#include "comm/parallel.hpp"
#include "comm/replicated.hpp"
#include "common/check.hpp"
#include "core/allreduce.hpp"
#include "core/plan_cache.hpp"
#include "obs/flight_recorder.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using testing::random_workload;
using testing::Workload;

const std::vector<std::vector<std::uint32_t>> kSchedules = {
    {}, {2}, {8}, {2, 2, 2}, {4, 2}, {3, 5}, {4, 1, 2},
};

class PlanScheduleTest
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(PlanScheduleTest, AdoptedPlanReplayMatchesCompilingAllreduce) {
  const Topology topo(GetParam());
  const rank_t m = topo.num_machines();
  auto w = random_workload<float>(m, 150, 0.2, 0.4, 6000 + m);
  ParallelBspEngine<float> engine(m, 1);

  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> compiler(
      &engine, topo);
  auto plan = compiler.compile(w.in_sets, w.out_sets);
  ASSERT_NE(plan, nullptr);
  const auto reference = compiler.reduce(w.out_values);
  testing::expect_matches_oracle<float>(w, reference);

  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> replayer(
      &engine, topo);
  replayer.configure(plan);
  EXPECT_EQ(replayer.reduce(w.out_values), reference);

  // New values, same plan: repeated replays track the oracle.
  for (int round = 1; round <= 3; ++round) {
    for (auto& values : w.out_values) {
      for (auto& v : values) v += static_cast<float>(round);
    }
    const auto again = replayer.reduce(w.out_values);
    EXPECT_EQ(again, compiler.reduce(w.out_values));
    testing::expect_matches_oracle<float>(w, again);
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, PlanScheduleTest,
                         ::testing::ValuesIn(kSchedules));

TEST(Plan, ReplayIsBitIdenticalAcrossAllFourEngines) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 200, 0.15, 0.3, 42);

  std::vector<std::vector<float>> reference;
  std::shared_ptr<const CollectivePlan> plan;
  {
    ParallelBspEngine<float> engine(m, 1);
    SparseAllreduce<float, OpSum, ParallelBspEngine<float>> ar(&engine, topo);
    plan = ar.compile(w.in_sets, w.out_sets);
    reference = ar.reduce(w.out_values);
  }
  testing::expect_matches_oracle<float>(w, reference);
  {
    ParallelBspEngine<float> engine(m);
    SparseAllreduce<float, OpSum, ParallelBspEngine<float>> ar(&engine, topo);
    ar.configure(plan);
    EXPECT_EQ(ar.reduce(w.out_values), reference) << "parallel replay";
  }
  {
    ReplicatedBsp<float> engine(m, 2);
    SparseAllreduce<float, OpSum, ReplicatedBsp<float>> ar(&engine, topo);
    ar.configure(plan);
    EXPECT_EQ(ar.reduce(w.out_values), reference) << "replicated replay";
  }
}

TEST(Plan, IsValueTypeIndependent) {
  // One plan compiled through the float allreduce drives a double reduce:
  // routing state never touches V.
  const Topology topo({3, 2});
  const rank_t m = topo.num_machines();
  const auto wf = random_workload<float>(m, 120, 0.25, 0.4, 77);
  ParallelBspEngine<float> fengine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> compiler(
      &fengine, topo);
  const auto plan = compiler.compile(wf.in_sets, wf.out_sets);

  Workload<double> wd;
  wd.in_sets = wf.in_sets;
  wd.out_sets = wf.out_sets;
  for (const auto& values : wf.out_values) {
    wd.out_values.emplace_back(values.begin(), values.end());
  }
  ParallelBspEngine<double> dengine(m, 1);
  SparseAllreduce<double, OpSum, ParallelBspEngine<double>> replayer(
      &dengine, topo);
  replayer.configure(plan);
  testing::expect_matches_oracle<double>(wd, replayer.reduce(wd.out_values));
}

TEST(Plan, AdoptedReplayUnderSurvivableFaultsMatchesCleanRun) {
  // Invariant: with replication 2 and no whole group dead, transient faults
  // and single-replica crashes are invisible — so an adopted-plan replay on
  // a faulty engine must still be bit-identical to the clean run.
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto w = random_workload<float>(m, 100, 0.2, 0.4, 7000 + seed);

    ReplicatedBsp<float> clean(m, 2);
    SparseAllreduce<float, OpSum, ReplicatedBsp<float>> clean_ar(&clean,
                                                                 topo);
    const auto plan = clean_ar.compile(w.in_sets, w.out_sets);
    const auto reference = clean_ar.reduce(w.out_values);

    FaultPlan faults(m * 2, seed);
    FaultPlan::TransientRates rates;
    rates.drop = 0.08;
    rates.duplicate = 0.05;
    rates.delay = 0.05;
    faults.set_transient_rates(rates);
    const rank_t crashes = seed % 3;
    for (rank_t c = 0; c < crashes; ++c) {
      // Distinct logical groups, one replica each: no group dies.
      faults.crash_at_round((seed + 2 * c) % m + ((seed + c) % 2) * m,
                            (seed + c) % 4);
    }
    FaultChannel<float> channel(&faults);
    ReplicatedBsp<float> engine(m, 2);
    engine.set_fault_channel(&channel);
    SparseAllreduce<float, OpSum, ReplicatedBsp<float>> ar(&engine, topo);
    ar.configure(plan);
    ASSERT_FALSE(engine.has_failed());
    EXPECT_EQ(ar.reduce(w.out_values), reference);
  }
}

// ---- Multi-payload: strided == k independent reduces ----

template <typename V>
std::vector<std::vector<V>> interleave(
    const std::vector<std::vector<std::vector<V>>>& per_payload) {
  const std::size_t k = per_payload.size();
  std::vector<std::vector<V>> out(per_payload[0].size());
  for (std::size_t r = 0; r < out.size(); ++r) {
    out[r].resize(per_payload[0][r].size() * k);
    for (std::size_t p = 0; p < per_payload[0][r].size(); ++p) {
      for (std::size_t c = 0; c < k; ++c) {
        out[r][p * k + c] = per_payload[c][r][p];
      }
    }
  }
  return out;
}

template <typename V>
void expect_strided_matches_independent(std::uint32_t k, std::uint64_t seed) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<V>(m, 150, 0.2, 0.4, seed);
  ParallelBspEngine<V> engine(m, 1);
  SparseAllreduce<V, OpSum, ParallelBspEngine<V>> ar(&engine, topo);
  ar.configure(w.in_sets, w.out_sets);

  // Payload c = base values shifted by c (still exact small integers).
  std::vector<std::vector<std::vector<V>>> payloads(k);
  std::vector<std::vector<std::vector<V>>> independent(k);
  for (std::uint32_t c = 0; c < k; ++c) {
    payloads[c] = w.out_values;
    for (auto& values : payloads[c]) {
      for (auto& v : values) v += static_cast<V>(c);
    }
    independent[c] = ar.reduce(payloads[c]);
  }

  const auto strided = ar.reduce_strided(interleave(payloads), k);
  ASSERT_EQ(strided.size(), m);
  for (rank_t r = 0; r < m; ++r) {
    ASSERT_EQ(strided[r].size(), independent[0][r].size() * k);
    for (std::size_t p = 0; p < independent[0][r].size(); ++p) {
      for (std::uint32_t c = 0; c < k; ++c) {
        EXPECT_EQ(strided[r][p * k + c], independent[c][r][p])
            << "rank " << r << " key " << p << " payload " << c;
      }
    }
  }
  // The executor resets to stride 1 cleanly.
  EXPECT_EQ(ar.reduce(payloads[0]), independent[0]);
}

TEST(PlanStrided, MatchesIndependentReducesFloat) {
  expect_strided_matches_independent<float>(3, 21);
}

TEST(PlanStrided, MatchesIndependentReducesDouble) {
  expect_strided_matches_independent<double>(4, 22);
}

TEST(PlanStrided, StrideOneIsPlainReduce) {
  const Topology topo({2, 2});
  const auto w = random_workload<float>(4, 80, 0.3, 0.5, 23);
  ParallelBspEngine<float> engine(4, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> ar(&engine, topo);
  ar.configure(w.in_sets, w.out_sets);
  EXPECT_EQ(ar.reduce_strided(w.out_values, 1), ar.reduce(w.out_values));
}

TEST(PlanStrided, WrongLengthOrModeThrows) {
  const Topology topo({2});
  const auto w = random_workload<float>(2, 30, 0.5, 0.5, 24);
  ParallelBspEngine<float> engine(2, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> ar(&engine, topo);
  // Before any configure: no plan to replay.
  EXPECT_THROW((void)ar.reduce_strided({{1.0f}, {2.0f}}, 2), check_error);
  ar.configure(w.in_sets, w.out_sets);
  auto bad = w.out_values;  // not multiplied by the stride
  EXPECT_THROW((void)ar.reduce_strided(std::move(bad), 2), check_error);
  EXPECT_THROW((void)ar.reduce_strided(w.out_values, 0), check_error);
}

// Combined mode compiles an anonymous plan as it reduces, so reduce() and
// reduce_strided() afterwards replay it — bitwise equal to a separate
// configure() + reduce().
TEST(PlanStrided, ReplayAfterCombinedMatchesSeparateConfigure) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const std::uint32_t stride = 3;
  const auto w = random_workload<float>(m, 90, 0.3, 0.5, 24);
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> separate(
      &engine, topo);
  separate.configure(w.in_sets, w.out_sets);
  const auto expected = separate.reduce(w.out_values);

  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> combined(
      &engine, topo);
  EXPECT_EQ(combined.reduce_with_config(w.in_sets, w.out_sets, w.out_values),
            expected);
  ASSERT_NE(combined.plan(), nullptr);
  EXPECT_EQ(combined.plan()->fingerprint(), 0u);  // anonymous: never cached
  EXPECT_EQ(combined.reduce(w.out_values), expected);
  std::vector<std::vector<float>> interleaved(m);
  for (rank_t r = 0; r < m; ++r) {
    for (const float v : w.out_values[r]) {
      for (std::uint32_t c = 0; c < stride; ++c) {
        interleaved[r].push_back(v + static_cast<float>(c));
      }
    }
  }
  EXPECT_EQ(combined.reduce_strided(interleaved, stride),
            separate.reduce_strided(interleaved, stride));
}

// ---- Fingerprints and the PlanCache ----

TEST(PlanFingerprint, IsDeterministicRoleAndSetSensitive) {
  const auto w = random_workload<float>(4, 60, 0.3, 0.5, 31);
  const auto base = fingerprint_key_sets(w.in_sets, w.out_sets);
  EXPECT_NE(base, 0u);
  EXPECT_EQ(base, fingerprint_key_sets(w.in_sets, w.out_sets));
  // Swapping roles must not collide.
  EXPECT_NE(base, fingerprint_key_sets(w.out_sets, w.in_sets));
  // Any set change must not collide.
  auto other = w.in_sets;
  other[0] = KeySet::from_indices(std::vector<index_t>{1, 2, 3});
  EXPECT_NE(base, fingerprint_key_sets(other, w.out_sets));
}

/// fingerprint_key_sets of one rank requesting `in` and contributing `out`.
std::uint64_t fingerprint_of(const KeySet& in, const KeySet& out) {
  const std::vector<KeySet> ins{in};
  const std::vector<KeySet> outs{out};
  return fingerprint_key_sets(ins, outs);
}

/// The strictly increasing key set {first, first + step, ...} of `n` keys.
KeySet arithmetic_keys(std::size_t n, key_t first, key_t step) {
  std::vector<key_t> keys(n);
  for (std::size_t p = 0; p < n; ++p) keys[p] = first + p * step;
  return KeySet::from_sorted_keys(std::move(keys));
}

// Keys feed 8 lanes by position, so prefixes around a multiple of 8 (full
// lane rounds plus a short tail) exercise the tail loop and the length
// fold.
TEST(PlanFingerprint, EveryPrefixOfOneSortedSetIsDistinct) {
  std::vector<index_t> indices(40);
  for (index_t i = 0; i < indices.size(); ++i) indices[i] = i;
  const KeySet full = KeySet::from_indices(indices);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  for (std::size_t k = 3; k <= 4; ++k) {
    lengths.push_back(8 * k - 1);
    lengths.push_back(8 * k + 1);
  }
  std::set<std::uint64_t> seen;
  for (const std::size_t n : lengths) {
    const KeySet prefix = KeySet::from_sorted_keys(
        std::vector<key_t>(full.begin(), full.begin() + n));
    const std::uint64_t as_in = fingerprint_of(prefix, full);
    const std::uint64_t as_out = fingerprint_of(full, prefix);
    EXPECT_TRUE(seen.insert(as_in).second) << "in prefix of length " << n;
    EXPECT_TRUE(seen.insert(as_out).second) << "out prefix of length " << n;
  }
}

TEST(PlanFingerprint, ChangingAnySingleKeyChangesIt) {
  // Keys 100 apart, so position p can move to 100p + 1 and stay sorted.
  const KeySet base = arithmetic_keys(17, 100, 100);
  const std::uint64_t fp = fingerprint_of(base, base);
  for (std::size_t p = 0; p < base.size(); ++p) {
    std::vector<key_t> keys(base.begin(), base.end());
    keys[p] += 1;
    const KeySet changed = KeySet::from_sorted_keys(std::move(keys));
    EXPECT_NE(fingerprint_of(changed, base), fp) << "in position " << p;
    EXPECT_NE(fingerprint_of(base, changed), fp) << "out position " << p;
  }
}

TEST(PlanFingerprint, MovingALastKeyToTheNextRankChangesIt) {
  const std::vector<KeySet> in = {arithmetic_keys(9, 1, 1),
                                  arithmetic_keys(8, 10, 1)};
  // Rank 0's last key (9) moves to the front of rank 1: the concatenation
  // of the two sets is unchanged, only the boundary moves.
  const std::vector<KeySet> moved = {arithmetic_keys(8, 1, 1),
                                     arithmetic_keys(9, 9, 1)};
  EXPECT_NE(fingerprint_key_sets(in, in), fingerprint_key_sets(moved, in));
  EXPECT_NE(fingerprint_key_sets(in, in), fingerprint_key_sets(in, moved));
}

TEST(PlanFingerprint, ConsecutiveSmallIntegerKeysStayDistinct) {
  // Raw small integers, not splitmix64 outputs: every window {s, ..., s+n-1}
  // for n <= 33 and s <= 16 is a different set, so every fingerprint differs.
  std::set<std::uint64_t> seen;
  std::size_t sets = 0;
  for (std::size_t n = 0; n <= 33; ++n) {
    const key_t last_start = n == 0 ? 0 : 16;
    for (key_t s = 0; s <= last_start; ++s) {
      const KeySet window = arithmetic_keys(n, s, 1);
      EXPECT_TRUE(seen.insert(fingerprint_of(window, window)).second)
          << "window start " << s << " length " << n;
      ++sets;
    }
  }
  EXPECT_EQ(seen.size(), sets);
}

TEST(PlanFingerprint, RandomSmallWorkloadsNeverCollide) {
  // 1e5 small workloads (1-3 ranks, sets drawn from 24 indices, so lengths
  // cross the 8-lane boundaries). Equal fingerprints must mean equal sets.
  Rng rng(77);
  std::map<std::uint64_t, std::vector<std::vector<key_t>>> by_fingerprint;
  std::size_t repeats = 0;
  for (int trial = 0; trial < 100000; ++trial) {
    const rank_t m = 1 + static_cast<rank_t>(rng.below(3));
    std::vector<KeySet> in(m);
    std::vector<KeySet> out(m);
    std::vector<std::vector<key_t>> flat;
    for (auto* sets : {&in, &out}) {
      for (KeySet& set : *sets) {
        const std::uint64_t mask = rng.below(std::uint64_t{1} << 24);
        std::vector<index_t> indices;
        for (index_t i = 0; i < 24; ++i) {
          if ((mask >> i) & 1) indices.push_back(i);
        }
        set = KeySet::from_indices(indices);
        flat.emplace_back(set.begin(), set.end());
      }
    }
    const auto [it, inserted] =
        by_fingerprint.emplace(fingerprint_key_sets(in, out), flat);
    if (!inserted) {
      ASSERT_EQ(it->second, flat) << "collision at trial " << trial;
      ++repeats;
    }
  }
  EXPECT_EQ(by_fingerprint.size() + repeats, 100000u);
}

TEST(PlanCacheTest, ConfigureCachedHitsAfterMissAndTracksCounters) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 100, 0.25, 0.4, 32);
  ParallelBspEngine<float> engine(m, 1);
  PlanCache cache(4);

  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> ar(&engine, topo);
  EXPECT_FALSE(ar.configure_cached(cache, w.in_sets, w.out_sets));
  const auto reference = ar.reduce(w.out_values);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);

  // Same sets from a fresh allreduce: served from cache, same results.
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> again(&engine, topo);
  EXPECT_TRUE(again.configure_cached(cache, w.in_sets, w.out_sets));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(again.reduce(w.out_values), reference);

  // Different sets: miss, second entry.
  const auto w2 = random_workload<float>(m, 100, 0.25, 0.4, 33);
  EXPECT_FALSE(again.configure_cached(cache, w2.in_sets, w2.out_sets));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  testing::expect_matches_oracle<float>(w2, again.reduce(w2.out_values));
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  const Topology topo({2});
  ParallelBspEngine<float> engine(2, 1);
  PlanCache cache(2);
  std::vector<std::uint64_t> fps;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto w = random_workload<float>(2, 40, 0.4, 0.5, 40 + seed);
    SparseAllreduce<float, OpSum, ParallelBspEngine<float>> ar(&engine, topo);
    auto plan = ar.compile(w.in_sets, w.out_sets);
    fps.push_back(plan->fingerprint());
    if (seed == 2) {
      // Touch the oldest entry first so the middle one becomes LRU.
      EXPECT_NE(cache.find(fps[0]), nullptr);
    }
    cache.insert(std::move(plan));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.find(fps[0]), nullptr) << "recently-touched entry evicted";
  EXPECT_EQ(cache.find(fps[1]), nullptr) << "LRU entry survived";
  EXPECT_NE(cache.find(fps[2]), nullptr);
}

// Two degree vectors over the same 64 ranks and sets compile different
// plans; sharing one cache, the second allreduce must compile its own plan
// rather than be served the first one (which configure(plan) refuses).
TEST(PlanCacheTest, DistinctDegreesOverTheSameSetsMissInsteadOfThrowing) {
  const Topology wide({8, 4, 2});
  const Topology even({4, 4, 4});
  const rank_t m = wide.num_machines();
  ASSERT_EQ(even.num_machines(), m);
  const auto w = random_workload<float>(m, 200, 0.1, 0.3, 34);
  ParallelBspEngine<float> engine(m, 1);
  PlanCache cache(4);

  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> a(&engine, wide);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> b(&engine, even);
  EXPECT_FALSE(a.configure_cached(cache, w.in_sets, w.out_sets));
  EXPECT_FALSE(b.configure_cached(cache, w.in_sets, w.out_sets));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(a.plan()->fingerprint(), b.plan()->fingerprint());

  // Each now hits its own plan and replays it exactly.
  EXPECT_TRUE(a.configure_cached(cache, w.in_sets, w.out_sets));
  EXPECT_TRUE(b.configure_cached(cache, w.in_sets, w.out_sets));
  EXPECT_EQ(a.plan()->topology().to_string(), wide.to_string());
  EXPECT_EQ(b.plan()->topology().to_string(), even.to_string());
  testing::expect_matches_oracle<float>(w, a.reduce(w.out_values));
  testing::expect_matches_oracle<float>(w, b.reduce(w.out_values));
}

/// configure_cached on an empty cache; returns the key its lookup missed
/// under, read off the cache's flight recorder.
template <typename Allreduce>
std::uint64_t missed_key(Allreduce& ar, const Workload<float>& w) {
  obs::FlightRecorder recorder(1);
  recorder.set_enabled(true);
  PlanCache cache(2);
  cache.set_flight_recorder(&recorder);
  EXPECT_FALSE(ar.configure_cached(cache, w.in_sets, w.out_sets));
  const auto events = recorder.merged_events();
  EXPECT_EQ(events.size(), 1u);
  if (events.empty()) return 0;
  EXPECT_EQ(events[0].kind, obs::FlightEventKind::kPlanCacheMiss);
  EXPECT_EQ(cache.find(ar.plan()->fingerprint()), ar.plan());
  return events[0].bytes;
}

// A miss compiles under the key it looked up (the sets are hashed once):
// the inserted plan's fingerprint() is that key, for flat, hierarchical and
// dead-rank salts alike.
TEST(PlanCacheTest, MissInsertsThePlanUnderTheLookedUpKey) {
  const Topology flat({4, 2});
  const Topology hier({2, 2}, 2);
  const rank_t m = flat.num_machines();
  const auto w = random_workload<float>(m, 120, 0.25, 0.4, 35);

  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> flat_ar(&engine,
                                                                  flat);
  const std::uint64_t flat_key = missed_key(flat_ar, w);
  EXPECT_EQ(flat_key, flat_ar.plan()->fingerprint());

  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> hier_ar(&engine,
                                                                  hier);
  const std::uint64_t hier_key = missed_key(hier_ar, w);
  EXPECT_EQ(hier_key, hier_ar.plan()->fingerprint());
  EXPECT_TRUE(hier_ar.plan()->hierarchical());

  FailureModel failures(m);
  failures.kill(5);
  ParallelBspEngine<float> dead_engine(m, 1, &failures);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> dead_ar(
      &dead_engine, flat);
  const std::uint64_t dead_key = missed_key(dead_ar, w);
  EXPECT_EQ(dead_key, dead_ar.plan()->fingerprint());
  EXPECT_NE(dead_key, flat_ar.plan()->fingerprint());
}

TEST(PlanCacheTest, AnonymousPlansAreNotCached) {
  PlanCache cache(2);
  cache.insert(std::make_shared<CollectivePlan>(Topology({2}), 0));
  EXPECT_EQ(cache.size(), 0u);
}

// ---- Plan introspection ----

TEST(Plan, ExposesScheduleAndAmortizedWireBytes) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 120, 0.25, 0.4, 50);
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> ar(&engine, topo);
  const auto plan = ar.compile(w.in_sets, w.out_sets);

  // Keyed by the sets and the topology: a fresh compile of the same sets
  // over the same topology carries the same fingerprint.
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> twin(&engine, topo);
  EXPECT_NE(plan->fingerprint(), 0u);
  EXPECT_EQ(plan->fingerprint(),
            twin.compile(w.in_sets, w.out_sets)->fingerprint());
  EXPECT_FALSE(plan->degraded());
  ASSERT_TRUE(plan->any_configured());

  const auto schedule = plan->message_schedule();
  ASSERT_FALSE(schedule.empty());
  bool saw_config = false, saw_down = false, saw_up = false;
  for (const ScheduledMessage& msg : schedule) {
    saw_config |= msg.phase == Phase::kConfig;
    saw_down |= msg.phase == Phase::kReduceDown;
    saw_up |= msg.phase == Phase::kReduceUp;
    EXPECT_GE(msg.layer, 1u);
    EXPECT_LE(msg.layer, topo.num_layers());
  }
  EXPECT_TRUE(saw_config && saw_down && saw_up);

  // Keys are never resent, so doubling the payload count less than doubles
  // the wire bytes — the whole point of multi-payload replay.
  const auto one = plan->reduce_wire_bytes(sizeof(float), 1);
  const auto two = plan->reduce_wire_bytes(sizeof(float), 2);
  EXPECT_GT(one, 0u);
  EXPECT_GT(two, one);
  EXPECT_LT(two, 2 * one);
}

TEST(Plan, NodeIntrospectionUnavailableAfterAdoption) {
  const Topology topo({2, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 80, 0.3, 0.5, 51);
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> compiler(
      &engine, topo);
  const auto plan = compiler.compile(w.in_sets, w.out_sets);

  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> adopted(
      &engine, topo);
  adopted.configure(plan);
  EXPECT_THROW((void)adopted.node(0), check_error);
  // Layer measurements still work, served off the frozen plan.
  EXPECT_EQ(adopted.measured_layer_elements(),
            compiler.measured_layer_elements());
}

TEST(Plan, AdoptionRequiresMatchingTopology) {
  const auto w = random_workload<float>(4, 60, 0.3, 0.5, 52);
  ParallelBspEngine<float> engine(4, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> compiler(
      &engine, Topology({4}));
  const auto plan = compiler.compile(w.in_sets, w.out_sets);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> other(
      &engine, Topology({2, 2}));
  testing::expect_check_message(
      [&] { other.configure(plan); },
      "adopted plan was compiled for a different topology");
}

}  // namespace
}  // namespace kylix
