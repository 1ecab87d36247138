// End-to-end elastic-membership healing: seeded kill-group → degraded
// rounds → detector-confirmed re-plan → post-heal reduces bit-identical to
// a fresh configure on the survivor set → rejoin at a later epoch restores
// the original plan from the PlanCache. Runs on the plain and the
// replicated engine plus the AsyncExecutor, and carries the
// PlanCache-across-epochs satellite tests.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/failure.hpp"
#include "cluster/fault_plan.hpp"
#include "cluster/membership.hpp"
#include "comm/parallel.hpp"
#include "comm/replicated.hpp"
#include "core/allreduce.hpp"
#include "core/async_executor.hpp"
#include "core/epoch_manager.hpp"
#include "core/plan_cache.hpp"
#include "core/topology.hpp"
#include "obs/flight_recorder.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

template <typename Engine>
std::unique_ptr<Engine> make_engine(rank_t m, const FailureModel* fm) {
  return std::make_unique<Engine>(m, 4, fm);
}

template <typename Engine>
class FlatHealTest : public ::testing::Test {};

using FlatEngines = ::testing::Types<ParallelBspEngine<float>>;
TYPED_TEST_SUITE(FlatHealTest, FlatEngines);

// Kill one rank mid-run, confirm via the heartbeat detector, re-plan, and
// verify the healed plan is indistinguishable from a cold configure on the
// survivor set; then rejoin the rank and verify the original epoch-0 plan
// is served back from the cache.
TYPED_TEST(FlatHealTest, KillHealRejoinBitIdentical) {
  using Engine = TypeParam;
  using Allreduce = SparseAllreduce<float, OpSum, Engine>;
  const rank_t m = 8;
  const Topology topo({4, 2});
  const auto w = testing::random_workload<float>(m, 256, 0.3, 0.5, 99);

  FailureModel fm(m);
  auto engine = make_engine<Engine>(m, &fm);
  Allreduce ar(engine.get(), topo);
  MembershipView view(m, &fm);
  PlanCache cache(8);
  typename EpochedPlanManager<float, OpSum, Engine>::Options mopts;
  mopts.cache = &cache;
  EpochedPlanManager<float, OpSum, Engine> mgr(&ar, &view, mopts);
  mgr.set_engine(engine.get());

  mgr.configure(w.in_sets, w.out_sets);
  const std::uint64_t fp0 = ar.plan()->fingerprint();
  const auto r0 = ar.reduce(w.out_values);
  testing::expect_matches_oracle(w, r0);

  // Seeded kill: rank 3 dies. The detector holds it in suspicion, so the
  // next rounds run degraded on the old plan — cost, not a dead cluster.
  fm.kill(3);
  EXPECT_FALSE(mgr.heal(0.0));  // suspect only: no re-plan yet
  EXPECT_EQ(view.state(3), MembershipView::State::kSuspect);
  const auto degraded = ar.reduce(w.out_values);
  EXPECT_TRUE(degraded[3].empty());

  // Probes exhaust → confirmed dead → epoch 1 → re-plan on survivors.
  ASSERT_TRUE(mgr.heal_settled(1.0));
  EXPECT_EQ(mgr.epoch(), 1u);
  const std::uint64_t fp1 = ar.plan()->fingerprint();
  EXPECT_NE(fp1, fp0);  // alive-set salt keeps per-epoch plans distinct
  const auto healed = ar.reduce(w.out_values);

  // Oracle: a cold configure on the survivor set must be bit-identical.
  FailureModel fm2(m);
  fm2.kill(3);
  auto engine2 = make_engine<Engine>(m, &fm2);
  Allreduce fresh(engine2.get(), topo);
  fresh.configure(w.in_sets, w.out_sets);
  EXPECT_EQ(fresh.plan()->fingerprint(), fp1);
  const auto expected = fresh.reduce(w.out_values);
  EXPECT_EQ(healed, expected);

  // Rejoin at a later epoch: full membership again, so the salted
  // fingerprint folds back to fp0 and the cache serves the epoch-0 plan.
  fm.revive(3);
  ASSERT_TRUE(mgr.heal(2.0));
  EXPECT_EQ(mgr.epoch(), 2u);
  EXPECT_EQ(ar.plan()->fingerprint(), fp0);
  ASSERT_EQ(mgr.timeline().size(), 3u);
  EXPECT_TRUE(mgr.timeline().back().cache_hit);
  const auto rejoined = ar.reduce(w.out_values);
  EXPECT_EQ(rejoined, r0);
}

// The replicated engine heals at group granularity: a single replica death
// changes nothing, a whole-group death triggers re-plan, and post-heal
// DegradedReports describe only the new epoch (dead-at-start, exactly what
// a fresh configure on the survivor set reports).
TEST(ReplicatedHealTest, GroupDeathHealRejoin) {
  using Engine = ReplicatedBsp<float>;
  using Allreduce = SparseAllreduce<float, OpSum, Engine>;
  const rank_t m = 8;
  const std::uint32_t s = 2;
  const Topology topo({4, 2});
  const auto w = testing::random_workload<float>(m, 128, 0.3, 0.5, 7);

  FailureModel fm(m * s);
  Engine engine(m, s, &fm);
  Allreduce ar(&engine, topo);
  MembershipOptions vopts;
  vopts.replication = s;
  MembershipView view(m, &fm, vopts);
  PlanCache cache(8);
  EpochedPlanManager<float, OpSum, Engine>::Options mopts;
  mopts.cache = &cache;
  EpochedPlanManager<float, OpSum, Engine> mgr(&ar, &view, mopts);
  mgr.set_engine(&engine);

  mgr.configure(w.in_sets, w.out_sets);
  const auto r0 = ar.reduce(w.out_values);
  testing::expect_matches_oracle(w, r0);

  // One replica down: replication absorbs it, membership unchanged.
  fm.kill(3);
  EXPECT_FALSE(mgr.heal_settled(1.0));
  EXPECT_EQ(mgr.epoch(), 0u);
  EXPECT_EQ(ar.reduce(w.out_values), r0);

  // The whole group dies mid-run: degraded rounds until the detector
  // confirms, with mid-run death records in the report.
  fm.kill(3 + m);
  EXPECT_FALSE(mgr.heal(2.0));
  const auto degraded = ar.reduce(w.out_values);
  const auto pre = ar.degraded_report();
  EXPECT_TRUE(pre.degraded);
  EXPECT_EQ(pre.lost_logical, std::vector<rank_t>{3});
  EXPECT_TRUE(pre.lost_from_start.empty());  // it died mid-run, not at start
  EXPECT_TRUE(degraded[3].empty());

  // Heal. Post-heal reports must cover only the new epoch: rank 3 is
  // dead-at-start of the healed plan, matching a fresh survivor configure.
  ASSERT_TRUE(mgr.heal_settled(3.0));
  EXPECT_EQ(mgr.epoch(), 1u);
  const auto healed = ar.reduce(w.out_values);
  const auto post = ar.degraded_report();

  FailureModel fm2(m * s);
  fm2.kill(3);
  fm2.kill(3 + m);
  Engine engine2(m, s, &fm2);
  Allreduce fresh(&engine2, topo);
  fresh.configure(w.in_sets, w.out_sets);
  EXPECT_EQ(fresh.plan()->fingerprint(), ar.plan()->fingerprint());
  const auto expected = fresh.reduce(w.out_values);
  const auto fresh_report = fresh.degraded_report();

  EXPECT_EQ(healed, expected);
  EXPECT_TRUE(post.degraded);
  EXPECT_EQ(post.lost_logical, fresh_report.lost_logical);
  EXPECT_EQ(post.lost_from_start, fresh_report.lost_from_start);
  EXPECT_EQ(post.lost_from_start, std::vector<rank_t>{3});
  EXPECT_EQ(post.lost_keys, fresh_report.lost_keys);

  // Rejoin: revive both replicas → epoch 2 → exact reduces again, with a
  // clean report (epoch scoping forgot the old deaths).
  fm.revive(3);
  fm.revive(3 + m);
  ASSERT_TRUE(mgr.heal(4.0));
  EXPECT_EQ(mgr.epoch(), 2u);
  EXPECT_TRUE(mgr.timeline().back().cache_hit);
  EXPECT_EQ(ar.reduce(w.out_values), r0);
  EXPECT_FALSE(ar.degraded_report().degraded);
}

// AsyncExecutor across epochs: streams are tagged with the epoch they were
// admitted under, old-epoch streams complete against the old plan, and the
// manager rebinds + re-stamps the executor at each heal.
TEST(AsyncHealTest, EpochTaggedStreamsAcrossHeal) {
  using Engine = ParallelBspEngine<float>;
  using Allreduce = SparseAllreduce<float, OpSum, Engine>;
  const rank_t m = 8;
  const Topology topo({4, 2});
  const auto w = testing::random_workload<float>(m, 128, 0.3, 0.5, 17);

  FailureModel fm(m);
  Engine engine(m, 1, &fm);
  Allreduce ar(&engine, topo);
  MembershipView view(m, &fm);
  PlanCache cache(8);
  AsyncExecutor<float, OpSum> async;
  obs::FlightRecorder recorder(m);
  EpochedPlanManager<float, OpSum, Engine>::Options mopts;
  mopts.cache = &cache;
  mopts.async = &async;
  mopts.async_options.window = 2;
  mopts.async_options.recorder = &recorder;
  EpochedPlanManager<float, OpSum, Engine> mgr(&ar, &view, mopts);
  mgr.set_engine(&engine);

  mgr.configure(w.in_sets, w.out_sets);
  const auto serial0 = ar.reduce(w.out_values);

  const std::uint32_t t0 = async.submit(w.out_values);
  const std::uint32_t t1 = async.submit(w.out_values);
  async.drain();
  EXPECT_EQ(async.stream_epoch(t0), 0u);
  EXPECT_EQ(async.stream_epoch(t1), 0u);
  EXPECT_EQ(async.take_result(t0), serial0);
  EXPECT_EQ(async.take_result(t1), serial0);

  fm.kill(5);
  ASSERT_TRUE(mgr.heal_settled(1.0));
  EXPECT_EQ(async.epoch(), 1u);
  EXPECT_EQ(async.plan().get(), ar.plan().get());  // rebound to healed plan

  // New submissions run on the new epoch; the dead rank rides a FaultPlan
  // marking it dead (the executor's contract for unconfigured ranks).
  FaultPlan stream_faults(m);
  stream_faults.failures().kill(5);
  const std::uint32_t t2 = async.submit(w.out_values, &stream_faults);
  async.drain();
  EXPECT_EQ(async.stream_epoch(t2), 1u);
  const auto healed_serial = ar.reduce(w.out_values);
  EXPECT_EQ(async.take_result(t2), healed_serial);

  // Admission events carry the epoch tag in `value`.
  int epoch0_admits = 0, epoch1_admits = 0;
  for (const obs::FlightEvent& e : recorder.merged_events()) {
    if (e.kind != obs::FlightEventKind::kStreamAdmit) continue;
    if (e.value == 0.0) ++epoch0_admits;
    if (e.value == 1.0) ++epoch1_admits;
  }
  EXPECT_EQ(epoch0_admits, 2);
  EXPECT_EQ(epoch1_admits, 1);
}

// Satellite: plans of different epochs never collide in the cache, and the
// salted fingerprint is deterministic per alive-set.
TEST(PlanCacheEpochTest, FingerprintSaltedByAliveSet) {
  using Engine = ParallelBspEngine<float>;
  const rank_t m = 8;
  const Topology topo({4, 2});
  const auto w = testing::random_workload<float>(m, 128, 0.3, 0.5, 23);

  FailureModel fm(m);
  Engine engine(m, 1, &fm);
  SparseAllreduce<float, OpSum, Engine> ar(&engine, topo);
  const auto p0 = ar.compile(w.in_sets, w.out_sets);
  fm.kill(2);
  const auto p1 = ar.compile(w.in_sets, w.out_sets);
  EXPECT_NE(p1->fingerprint(), p0->fingerprint());
  const auto p1_again = ar.compile(w.in_sets, w.out_sets);
  EXPECT_EQ(p1_again->fingerprint(), p1->fingerprint());
  fm.kill(6);
  const auto p2 = ar.compile(w.in_sets, w.out_sets);
  EXPECT_NE(p2->fingerprint(), p1->fingerprint());
  EXPECT_NE(p2->fingerprint(), p0->fingerprint());
  fm.revive(2);
  fm.revive(6);
  const auto p3 = ar.compile(w.in_sets, w.out_sets);
  EXPECT_EQ(p3->fingerprint(), p0->fingerprint());  // rejoin folds back
}

// Satellite: an old-epoch plan evicted from the cache stays alive while the
// async executor still references it (in-flight old-epoch streams), and
// becomes reclaimable once the executor rebinds to the new epoch.
TEST(PlanCacheEpochTest, OldEpochPlanPinnedByAsyncThenEvictable) {
  using Engine = ParallelBspEngine<float>;
  const rank_t m = 8;
  const Topology topo({4, 2});
  const auto w = testing::random_workload<float>(m, 128, 0.3, 0.5, 31);

  FailureModel fm(m);
  Engine engine(m, 1, &fm);
  SparseAllreduce<float, OpSum, Engine> ar(&engine, topo);
  PlanCache cache(1);  // one slot: the epoch-1 insert evicts epoch 0

  AsyncExecutor<float, OpSum> async;
  AsyncExecutor<float, OpSum>::Options aopts;
  aopts.window = 2;

  auto plan0 = ar.compile(w.in_sets, w.out_sets);
  cache.insert(plan0);
  async.bind(plan0, aopts);
  const auto r0 = ar.reduce(w.out_values);
  std::weak_ptr<const CollectivePlan> watch0 = plan0;
  plan0.reset();

  // Epoch 1: rank 2 dies, survivors re-plan; the tiny cache evicts plan 0.
  fm.kill(2);
  auto plan1 = ar.compile(w.in_sets, w.out_sets);
  cache.insert(plan1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(watch0.expired());  // pinned: the executor still holds it

  // Old-epoch streams keep completing against the evicted plan.
  const std::uint32_t tag = async.submit(w.out_values);
  async.drain();
  EXPECT_EQ(async.take_result(tag), r0);

  // Once the executor moves to the new epoch, the old plan is reclaimed.
  async.bind(plan1, aopts);
  EXPECT_TRUE(watch0.expired());
}

}  // namespace
}  // namespace kylix
