// Two-tier hierarchy properties (DESIGN §13).
//
// The theorem under test: a hierarchical topology {d_1 x ... x d_l | c
// cores} over h*c ranks is *bit-identical* per key to the flat topology
// {c, d_1, ..., d_l} over the same ranks, because the per-key accumulation
// expression trees coincide — the leader folds its host's members in
// ascending rank order exactly as a flat layer-1 group merge would, and
// the up pass is pure gathers. The suite checks that identity on all three
// engines (float, double, strided), the c == 1 degeneration (results,
// traces, and fingerprint all equal the flat run), PlanCache coexistence
// of hierarchical and flat plans over the same key sets, the intra/inter
// timing split, canonical-leader degraded semantics, that the host
// unions compile the same plan at every thread count, and that the pooled
// stages (sliced host folds, bottom gather, finish_configure, set digests)
// give the same bits and modeled times at 1, 3 and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/failure.hpp"
#include "common/check.hpp"
#include "cluster/netmodel.hpp"
#include "cluster/timing.hpp"
#include "cluster/trace.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "comm/parallel.hpp"
#include "comm/replicated.hpp"
#include "core/allreduce.hpp"
#include "core/plan_cache.hpp"
#include "core/topology.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using testing::random_workload;
using testing::Workload;

/// Scale the integer workload values into non-representable float
/// territory so that any reordering of the accumulation tree would change
/// the bits — the bit-identity checks then have teeth.
template <typename V>
void roughen(Workload<V>& w) {
  for (auto& values : w.out_values) {
    for (auto& v : values) v = v * static_cast<V>(0.001) + static_cast<V>(0.1);
  }
}

// ---- The host model itself ----

TEST(HierarchyTopology, HostModelAccessors) {
  const Topology topo({4, 2}, 4);
  EXPECT_EQ(topo.num_hosts(), 8u);
  EXPECT_EQ(topo.num_machines(), 32u);
  EXPECT_EQ(topo.cores_per_machine(), 4u);
  EXPECT_TRUE(topo.hierarchical());
  EXPECT_EQ(topo.host_of(13), 3u);
  EXPECT_EQ(topo.core_of(13), 1u);
  EXPECT_EQ(topo.leader_rank(3), 12u);
  EXPECT_TRUE(topo.is_leader(12));
  EXPECT_FALSE(topo.is_leader(13));
  EXPECT_EQ(topo.to_string(), "4 x 2 | 4 cores");

  const Topology flat({4, 2});
  EXPECT_FALSE(flat.hierarchical());
  EXPECT_EQ(flat.cores_per_machine(), 1u);
  EXPECT_EQ(flat.num_hosts(), flat.num_machines());
  EXPECT_EQ(flat.to_string(), "4 x 2");
  EXPECT_FALSE(Topology({4, 2}, 1).hierarchical());
}

TEST(HierarchyTopology, GroupReturnsCanonicalLeadersSharedByAllCores) {
  const Topology topo({4, 2}, 4);
  for (std::uint16_t layer = 1; layer <= topo.num_layers(); ++layer) {
    for (rank_t r = 0; r < topo.num_machines(); ++r) {
      const auto group = topo.group(layer, r);
      ASSERT_EQ(group.size(), topo.degree(layer));
      // Every member is a canonical leader; the rank's own host leader sits
      // at the rank's digit; every core of a host sees the same group.
      for (const rank_t g : group) EXPECT_TRUE(topo.is_leader(g));
      EXPECT_EQ(group[topo.digit(layer, r)],
                topo.leader_rank(topo.host_of(r)));
      EXPECT_EQ(group, topo.group(layer, topo.leader_rank(topo.host_of(r))));
      EXPECT_EQ(topo.digit(layer, r),
                topo.digit(layer, topo.leader_rank(topo.host_of(r))));
    }
  }
}

TEST(HierarchyTopology, CoresOneDegeneratesToFlatAccessors) {
  const Topology flat({4, 2});
  const Topology one({4, 2}, 1);
  ASSERT_EQ(one.num_machines(), flat.num_machines());
  for (rank_t r = 0; r < flat.num_machines(); ++r) {
    EXPECT_EQ(one.host_of(r), r);
    EXPECT_EQ(one.core_of(r), 0u);
    EXPECT_TRUE(one.is_leader(r));
    for (std::uint16_t layer = 1; layer <= flat.num_layers(); ++layer) {
      EXPECT_EQ(one.group(layer, r), flat.group(layer, r));
      EXPECT_EQ(one.digit(layer, r), flat.digit(layer, r));
    }
  }
}

// ---- c == 1: bit-identical to flat, fingerprint unchanged ----

TEST(HierarchyDegenerate, CoresOneMatchesFlatResultsTraceAndFingerprint) {
  const Topology flat({4, 2});
  const Topology one({4, 2}, 1);
  const rank_t m = flat.num_machines();
  auto w = random_workload<float>(m, 150, 0.2, 0.4, 71);
  roughen(w);

  Trace flat_trace;
  ParallelBspEngine<float> flat_engine(m, 1, nullptr, &flat_trace);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> flat_ar(
      &flat_engine, flat);
  const auto flat_plan = flat_ar.compile(w.in_sets, w.out_sets);
  const auto flat_results = flat_ar.reduce(w.out_values);

  Trace one_trace;
  ParallelBspEngine<float> one_engine(m, 1, nullptr, &one_trace);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> one_ar(
      &one_engine, one);
  const auto one_plan = one_ar.compile(w.in_sets, w.out_sets);
  const auto one_results = one_ar.reduce(w.out_values);

  EXPECT_EQ(one_results, flat_results);
  EXPECT_EQ(one_plan->fingerprint(), flat_plan->fingerprint());
  EXPECT_FALSE(one_plan->hierarchical());
  // Identical wire traffic, message for message.
  ASSERT_EQ(one_trace.num_messages(), flat_trace.num_messages());
  EXPECT_EQ(one_trace.total_bytes(), flat_trace.total_bytes());
  EXPECT_EQ(one_trace.bytes_by_layer_all_phases(flat.num_layers()),
            flat_trace.bytes_by_layer_all_phases(flat.num_layers()));
  // Both runs were exact.
  EXPECT_FALSE(flat_ar.degraded_report().degraded);
  EXPECT_FALSE(one_ar.degraded_report().degraded);
}

TEST(HierarchyDegenerate, CoresOneHitsTheFlatPlanInTheCache) {
  const Topology flat({4, 2});
  const rank_t m = flat.num_machines();
  const auto w = random_workload<float>(m, 120, 0.2, 0.4, 72);

  PlanCache cache(8);
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> flat_ar(
      &engine, flat);
  EXPECT_FALSE(flat_ar.configure_cached(cache, w.in_sets, w.out_sets));

  // cores_per_machine == 1 does not salt the fingerprint: the degenerate
  // hierarchical topology is served the very plan the flat run compiled.
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> one_ar(
      &engine, Topology({4, 2}, 1));
  EXPECT_TRUE(one_ar.configure_cached(cache, w.in_sets, w.out_sets));
  EXPECT_EQ(one_ar.plan().get(), flat_ar.plan().get());
  EXPECT_EQ(one_ar.reduce(w.out_values), flat_ar.reduce(w.out_values));
}

// ---- c > 1: bit-identical to the flat-expanded topology ----

/// Compile + reduce `w` on `engine` over `topo`, returning the results.
template <typename V, typename Engine>
std::vector<std::vector<V>> run_once(Engine& engine, const Topology& topo,
                                     const Workload<V>& w) {
  SparseAllreduce<V, OpSum, Engine> allreduce(&engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  auto results = allreduce.reduce(w.out_values);
  EXPECT_FALSE(allreduce.degraded_report().degraded);
  return results;
}

TEST(HierarchyBitIdentity, MatchesFlatExpandedOnAllFourEngines) {
  // {2 x 2 | 2 cores} over 8 ranks vs flat {2, 2, 2}: the intra stage must
  // reproduce flat layer 1 bit for bit, non-associative floats included.
  const Topology hier({2, 2}, 2);
  const Topology flat({2, 2, 2});
  const rank_t m = hier.num_machines();
  ASSERT_EQ(m, flat.num_machines());
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto w = random_workload<float>(m, 120, 0.25, 0.4, 500 + seed);
    roughen(w);
    for (const unsigned threads : {1u, 4u}) {
      ParallelBspEngine<float> fe(m, threads);
      ParallelBspEngine<float> he(m, threads);
      EXPECT_EQ(run_once(he, hier, w), run_once(fe, flat, w));
    }
    {
      ReplicatedBsp<float> fe(m, 2);
      ReplicatedBsp<float> he(m, 2);
      EXPECT_EQ(run_once(he, hier, w), run_once(fe, flat, w));
    }
  }
}

TEST(HierarchyBitIdentity, WideHostsAndHeterogeneousInterLayers) {
  // {4 x 2 | 4 cores} over 32 ranks vs flat {4, 4, 2}: wide hosts, and the
  // exact-integer workload also passes the brute-force oracle.
  const Topology hier({4, 2}, 4);
  const Topology flat({4, 4, 2});
  const rank_t m = hier.num_machines();
  ASSERT_EQ(m, flat.num_machines());
  const auto w = random_workload<float>(m, 200, 0.15, 0.3, 600);
  ParallelBspEngine<float> fe(m, 1);
  ParallelBspEngine<float> he(m, 1);
  const auto flat_results = run_once(fe, flat, w);
  const auto hier_results = run_once(he, hier, w);
  EXPECT_EQ(hier_results, flat_results);
  testing::expect_matches_oracle<float>(w, hier_results);
}

TEST(HierarchyBitIdentity, DoubleStridedReplayMatchesFlatExpanded) {
  const Topology hier({2, 2}, 2);
  const Topology flat({2, 2, 2});
  const rank_t m = hier.num_machines();
  const std::uint32_t stride = 3;
  auto w = random_workload<double>(m, 100, 0.25, 0.4, 700);
  roughen(w);
  // Interleave `stride` perturbed copies of each payload key-major.
  std::vector<std::vector<double>> strided(m);
  for (rank_t r = 0; r < m; ++r) {
    for (const double v : w.out_values[r]) {
      for (std::uint32_t s = 0; s < stride; ++s) {
        strided[r].push_back(v + 0.013 * s);
      }
    }
  }
  ParallelBspEngine<double> fe(m, 1);
  SparseAllreduce<double, OpSum, ParallelBspEngine<double>> flat_ar(&fe, flat);
  flat_ar.configure(w.in_sets, w.out_sets);
  ParallelBspEngine<double> he(m, 1);
  SparseAllreduce<double, OpSum, ParallelBspEngine<double>> hier_ar(&he, hier);
  hier_ar.configure(w.in_sets, w.out_sets);
  EXPECT_EQ(hier_ar.reduce_strided(strided, stride),
            flat_ar.reduce_strided(strided, stride));
}

TEST(HierarchyBitIdentity, StreamedReplayMatchesLetterAtOnce) {
  const Topology hier({2, 2}, 2);
  const rank_t m = hier.num_machines();
  auto w = random_workload<float>(m, 150, 0.25, 0.4, 800);
  roughen(w);
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, hier);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto whole = allreduce.reduce(w.out_values);
  allreduce.set_chunk_bytes(64);
  allreduce.set_streaming(true);
  EXPECT_EQ(allreduce.reduce(w.out_values), whole);
}

// ---- Fingerprint salting and plan-cache coexistence ----

TEST(HierarchyPlanCache, HierarchicalAndFlatPlansCoexist) {
  const Topology hier({2, 2}, 2);
  const Topology flat({2, 2, 2});
  const rank_t m = hier.num_machines();
  const auto w = random_workload<float>(m, 120, 0.2, 0.4, 900);

  PlanCache cache(8);
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> flat_ar(
      &engine, flat);
  EXPECT_FALSE(flat_ar.configure_cached(cache, w.in_sets, w.out_sets));
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> hier_ar(
      &engine, hier);
  EXPECT_FALSE(hier_ar.configure_cached(cache, w.in_sets, w.out_sets));

  // Same key sets, distinct fingerprints: both plans live in the cache.
  ASSERT_NE(flat_ar.plan(), nullptr);
  ASSERT_NE(hier_ar.plan(), nullptr);
  EXPECT_NE(hier_ar.plan()->fingerprint(), flat_ar.plan()->fingerprint());
  EXPECT_TRUE(hier_ar.plan()->hierarchical());
  EXPECT_NE(cache.find(flat_ar.plan()->fingerprint()), nullptr);
  EXPECT_NE(cache.find(hier_ar.plan()->fingerprint()), nullptr);

  // A second hierarchical allreduce over the same sets is a cache hit and
  // replays to the same bits.
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> again(&engine, hier);
  EXPECT_TRUE(again.configure_cached(cache, w.in_sets, w.out_sets));
  EXPECT_EQ(again.plan().get(), hier_ar.plan().get());
  EXPECT_EQ(again.reduce(w.out_values), hier_ar.reduce(w.out_values));
}

// ---- The intra/inter timing split ----

TEST(HierarchyTiming, IntraTierIsChargedOnHierarchicalRunsOnly) {
  const Topology hier({2, 2}, 2);
  const Topology flat({2, 2, 2});
  const rank_t m = hier.num_machines();
  const auto w = random_workload<float>(m, 150, 0.25, 0.4, 1000);
  const NetworkModel net;
  const ComputeModel compute;

  TimingAccumulator flat_timing(m, net, compute);
  ParallelBspEngine<float> fe(m, 1, nullptr, nullptr, &flat_timing);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> flat_ar(
      &fe, flat, &compute);
  flat_ar.set_network(&net);
  flat_ar.configure(w.in_sets, w.out_sets);
  (void)flat_ar.reduce(w.out_values);

  TimingAccumulator hier_timing(m, net, compute);
  ParallelBspEngine<float> he(m, 1, nullptr, nullptr, &hier_timing);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> hier_ar(
      &he, hier, &compute);
  hier_ar.set_network(&net);
  hier_ar.configure(w.in_sets, w.out_sets);
  (void)hier_ar.reduce(w.out_values);

  const auto flat_times = flat_timing.times();
  const auto hier_times = hier_timing.times();
  EXPECT_EQ(flat_times.intra(), 0.0);
  EXPECT_GT(hier_times.intra_config, 0.0);
  EXPECT_GT(hier_times.intra_down, 0.0);
  EXPECT_GT(hier_times.intra_up, 0.0);
  // The split is additive: reduce() includes both tiers.
  EXPECT_DOUBLE_EQ(hier_times.reduce(), hier_times.reduce_down +
                                            hier_times.reduce_up +
                                            hier_times.intra_down +
                                            hier_times.intra_up);
  // The inter-node tier shrank (2 layers over hosts vs 3 flat rounds) while
  // the intra tier picked up the difference.
  EXPECT_LT(hier_times.reduce_down + hier_times.reduce_up,
            flat_times.reduce_down + flat_times.reduce_up);
}

// ---- Canonical-leader degraded semantics ----

TEST(HierarchyDegraded, DeadCanonicalLeaderSitsTheHostOut) {
  // Host 1's canonical leader (rank 2) is dead at compile time: the host
  // contributes nothing and its union never enters the inter-node exchange,
  // the surviving member completes with every requested key at identity,
  // and the dead leader is also a dead *butterfly node* — survivors read
  // subset sums of the surviving hosts' contributions (keys routed through
  // the dead node come back partial, never inflated).
  const Topology hier({2, 2}, 2);
  const rank_t m = hier.num_machines();
  const auto w = random_workload<float>(m, 120, 0.25, 0.4, 1100);
  const rank_t leader = hier.leader_rank(1);
  const rank_t member = leader + 1;

  FailureModel failures(m);
  failures.kill(leader);
  ParallelBspEngine<float> engine(m, 1, &failures);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, hier);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto results = allreduce.reduce(w.out_values);

  ASSERT_EQ(results.size(), w.in_sets.size());
  EXPECT_TRUE(results[leader].empty());
  // The orphaned member is alive but leaderless: full-size result, all
  // identity.
  ASSERT_EQ(results[member].size(), w.in_sets[member].size());
  for (std::size_t p = 0; p < results[member].size(); ++p) {
    EXPECT_EQ(results[member][p], 0.0f) << "member position " << p;
  }
  // Survivors: the workload's values are non-negative, so every returned
  // value is bounded by the exact sum over the surviving hosts (host 1's
  // inputs were excluded at compile; drops only shrink subset sums).
  std::map<key_t, float> totals;
  for (rank_t r = 0; r < m; ++r) {
    if (hier.host_of(r) == 1) continue;
    for (std::size_t p = 0; p < w.out_sets[r].size(); ++p) {
      totals[w.out_sets[r][p]] += w.out_values[r][p];
    }
  }
  for (rank_t r = 0; r < m; ++r) {
    if (hier.host_of(r) == 1) continue;
    ASSERT_EQ(results[r].size(), w.in_sets[r].size()) << "rank " << r;
    for (std::size_t p = 0; p < w.in_sets[r].size(); ++p) {
      const auto it = totals.find(w.in_sets[r][p]);
      EXPECT_LE(results[r][p], it == totals.end() ? 0.0f : it->second)
          << "rank " << r << " position " << p;
    }
  }

  // The orphaned member's exclusion is already total: additionally killing
  // it changes nothing for the rest of the cluster.
  FailureModel both_failures(m);
  both_failures.kill(leader);
  both_failures.kill(member);
  ParallelBspEngine<float> be(m, 1, &both_failures);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> both_ar(&be, hier);
  both_ar.configure(w.in_sets, w.out_sets);
  const auto both = both_ar.reduce(w.out_values);
  EXPECT_TRUE(both[member].empty());
  for (rank_t r = 0; r < m; ++r) {
    if (hier.host_of(r) == 1) continue;
    EXPECT_EQ(results[r], both[r]) << "rank " << r;
  }
}

TEST(HierarchyDegraded, DeadMemberAtCompileIsExactOverSurvivors) {
  // A dead non-leader member is a compile-time exclusion from its host's
  // unions: it never routes through the butterfly, so the hierarchical run
  // stays *exact* over the survivors. The flat expansion cannot match that
  // — there the same dead rank is a butterfly node and every key routed
  // through it is lost for its group.
  const Topology hier({2, 2}, 2);
  const Topology flat({2, 2, 2});
  const rank_t m = hier.num_machines();
  const auto w = random_workload<float>(m, 120, 0.25, 0.4, 1200);
  const rank_t victim = 3;  // core 1 of host 1
  ASSERT_FALSE(hier.is_leader(victim));

  FailureModel hier_failures(m);
  hier_failures.kill(victim);
  ParallelBspEngine<float> he(m, 1, &hier_failures);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> hier_ar(&he, hier);
  hier_ar.configure(w.in_sets, w.out_sets);
  const auto hier_results = hier_ar.reduce(w.out_values);

  FailureModel flat_failures(m);
  flat_failures.kill(victim);
  ParallelBspEngine<float> fe(m, 1, &flat_failures);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> flat_ar(&fe, flat);
  flat_ar.configure(w.in_sets, w.out_sets);
  const auto flat_results = flat_ar.reduce(w.out_values);

  EXPECT_TRUE(hier_results[victim].empty());
  // Survivors see the exact sum without the victim's contribution.
  std::map<key_t, float> totals;
  for (rank_t r = 0; r < m; ++r) {
    if (r == victim) continue;
    for (std::size_t p = 0; p < w.out_sets[r].size(); ++p) {
      totals[w.out_sets[r][p]] += w.out_values[r][p];
    }
  }
  std::size_t flat_divergences = 0;
  for (rank_t r = 0; r < m; ++r) {
    if (r == victim) continue;
    ASSERT_EQ(hier_results[r].size(), w.in_sets[r].size());
    for (std::size_t p = 0; p < w.in_sets[r].size(); ++p) {
      const auto it = totals.find(w.in_sets[r][p]);
      const float exact = it == totals.end() ? 0.0f : it->second;
      EXPECT_EQ(hier_results[r][p], exact)
          << "rank " << r << " position " << p;
      flat_divergences += flat_results[r][p] != exact;
    }
  }
  // The flat run really is more degraded on this workload: some keys
  // routed through the dead butterfly node and came back wrong.
  EXPECT_GT(flat_divergences, 0u);
}

// ---- The intra config stage across the engine pool ----

void expect_same_layer(const PlanLayer& a, const PlanLayer& b) {
  EXPECT_EQ(a.group, b.group);
  EXPECT_EQ(a.in_split, b.in_split);
  EXPECT_EQ(a.out_split, b.out_split);
  EXPECT_EQ(a.in_maps, b.in_maps);
  EXPECT_EQ(a.out_maps, b.out_maps);
  EXPECT_EQ(a.recv_out_sizes, b.recv_out_sizes);
  EXPECT_EQ(a.out_union_size, b.out_union_size);
  EXPECT_EQ(a.in_prev_size, b.in_prev_size);
}

void expect_same_plan(const CollectivePlan& a, const CollectivePlan& b) {
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  for (rank_t r = 0; r < a.num_ranks(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const RankPlan& x = a.rank_plan(r);
    const RankPlan& y = b.rank_plan(r);
    EXPECT_EQ(x.configured, y.configured);
    EXPECT_EQ(x.in0, y.in0);
    EXPECT_EQ(x.out0_size, y.out0_size);
    EXPECT_EQ(x.in_sizes, y.in_sizes);
    EXPECT_EQ(x.out_sizes, y.out_sizes);
    ASSERT_EQ(x.layers.size(), y.layers.size());
    for (std::size_t i = 0; i < x.layers.size(); ++i) {
      expect_same_layer(x.layers[i], y.layers[i]);
    }
    EXPECT_EQ(x.bottom_map, y.bottom_map);
    EXPECT_EQ(x.missing_bottom, y.missing_bottom);
  }
  ASSERT_EQ(a.intra_hosts().size(), b.intra_hosts().size());
  for (rank_t h = 0; h < a.intra_hosts().size(); ++h) {
    SCOPED_TRACE("host " + std::to_string(h));
    const IntraHost& x = a.intra_host(h);
    const IntraHost& y = b.intra_host(h);
    EXPECT_EQ(x.leader, y.leader);
    EXPECT_EQ(x.members, y.members);
    EXPECT_EQ(x.out_maps, y.out_maps);
    EXPECT_EQ(x.in_maps, y.in_maps);
    EXPECT_EQ(x.out_union_size, y.out_union_size);
  }
}

TEST(HierarchyCompile, PlanIsIdenticalAtEveryThreadCount) {
  // Host unions run inside intra_round(kConfig): across the pool on a
  // 4-thread ParallelBspEngine and inline at one thread.
  // 8 hosts x 3 cores, with a dead member (rank 4) and a dead canonical
  // leader (rank 9), so skipped and leaderless hosts run in the batch too.
  const Topology hier({4, 2}, 3);
  const rank_t m = hier.num_machines();
  ASSERT_FALSE(hier.is_leader(4));
  ASSERT_TRUE(hier.is_leader(9));
  const auto w = random_workload<float>(m, 400, 0.2, 0.3, 1400);
  const NetworkModel net;
  const ComputeModel compute;
  FailureModel failures(m);
  failures.kill(4);
  failures.kill(9);

  struct Compiled {
    std::shared_ptr<const CollectivePlan> plan;
    double intra_config = 0.0;
  };
  const auto compile_on = [&](auto& engine, TimingAccumulator& timing) {
    using Engine = std::remove_reference_t<decltype(engine)>;
    SparseAllreduce<float, OpSum, Engine> allreduce(&engine, hier, &compute);
    allreduce.set_network(&net);
    Compiled out;
    out.plan = allreduce.compile(w.in_sets, w.out_sets);
    out.intra_config = timing.times().intra_config;
    return out;
  };

  TimingAccumulator one_timing(m, net, compute);
  ParallelBspEngine<float> one(m, 1, &failures, nullptr, &one_timing);
  const Compiled reference = compile_on(one, one_timing);
  ASSERT_EQ(one.num_threads(), 1u);
  ASSERT_TRUE(reference.plan->hierarchical());
  EXPECT_EQ(reference.plan->intra_host(3).leader, kNoLeader);
  EXPECT_GT(reference.intra_config, 0.0);

  TimingAccumulator pool_timing(m, net, compute);
  ParallelBspEngine<float> pool(m, 4, &failures, nullptr, &pool_timing);
  const Compiled pooled = compile_on(pool, pool_timing);
  ASSERT_EQ(pool.num_threads(), 4u);
  expect_same_plan(*reference.plan, *pooled.plan);
  EXPECT_EQ(reference.intra_config, pooled.intra_config);
}

// ---- Pooled stages: sliced host folds, bottom gather, finish, digests ----

using HierEngine = ParallelBspEngine<float>;
using HierAllreduce = SparseAllreduce<float, OpSum, HierEngine>;

/// Key j of quarter q of the key space (the top two bits are q).
key_t quarter_key(std::uint64_t q, std::uint64_t j) {
  return (q << 62) | (hash_index(j) >> 2);
}

/// Banded workload over 4-core hosts: core k contributes keys of quarter
/// k, so its keys form one contiguous band of its host's union. Cores 0, 2
/// and 3 also share keys of quarter 0 (so the fold combines there), and
/// core 1's band is long enough to hold whole slices by itself. Values are
/// rough floats: any reordered combine changes their bits.
Workload<float> banded_workload(rank_t m, std::uint64_t seed) {
  Rng rng(seed);
  Workload<float> w;
  std::vector<key_t> contributed;
  for (rank_t r = 0; r < m; ++r) {
    const std::uint64_t core = r % 4;
    std::vector<key_t> keys;
    for (std::uint64_t j = 0; j < 4000; ++j) {
      if (core == 1 ? rng.uniform() < 0.7 : j < 1000 && rng.uniform() < 0.5) {
        keys.push_back(quarter_key(core, j));
      }
      if (core != 1 && j < 1000 && rng.uniform() < 0.5) {
        keys.push_back(quarter_key(0, j));
      }
    }
    w.out_sets.push_back(KeySet::from_keys(keys));
    contributed.insert(contributed.end(), w.out_sets.back().begin(),
                       w.out_sets.back().end());
  }
  const KeySet all = KeySet::from_keys(contributed);
  for (rank_t r = 0; r < m; ++r) {
    std::vector<key_t> keys;
    for (const key_t key : all) {
      if (rng.uniform() < 0.25) keys.push_back(key);
    }
    w.in_sets.push_back(KeySet::from_keys(keys));
    std::vector<float> values;
    for (std::size_t p = 0; p < w.out_sets[r].size(); ++p) {
      values.push_back(0.1f + 0.001f * static_cast<float>(rng.below(1000)));
    }
    w.out_values.push_back(std::move(values));
  }
  return w;
}

std::string hex(double x) {
  std::ostringstream out;
  out << std::hexfloat << x;
  return out.str();
}

struct PooledRun {
  std::vector<std::vector<float>> results;
  std::string intra, down, up;  ///< modeled times, as hex floats
};

/// Configure `w` over `topo` on a `threads`-thread engine, kill `dead`
/// (if any) after configure, and replay `values` at `stride`.
PooledRun run_pooled(const Topology& topo, const Workload<float>& w,
                     const std::vector<std::vector<float>>& values,
                     std::uint32_t stride, unsigned threads, bool streamed,
                     rank_t dead = kNoLeader) {
  const rank_t m = topo.num_machines();
  const NetworkModel net;
  const ComputeModel compute;
  FailureModel failures(m);
  TimingAccumulator timing(m, net, compute);
  HierEngine engine(m, threads, &failures, nullptr, &timing);
  HierAllreduce allreduce(&engine, topo, &compute);
  allreduce.set_network(&net);
  allreduce.configure(w.in_sets, w.out_sets);
  if (dead != kNoLeader) failures.kill(dead);
  allreduce.set_streaming(streamed);
  allreduce.set_chunk_bytes(1024);
  PooledRun run;
  run.results = allreduce.reduce_strided(values, stride);
  const auto times = timing.times();
  run.intra = hex(times.intra());
  run.down = hex(times.reduce_down);
  run.up = hex(times.reduce_up);
  return run;
}

std::vector<std::vector<float>> interleave3(const Workload<float>& w) {
  std::vector<std::vector<float>> strided(w.out_values.size());
  for (std::size_t r = 0; r < w.out_values.size(); ++r) {
    for (const float v : w.out_values[r]) {
      for (int s = 0; s < 3; ++s) strided[r].push_back(v + 0.013f * s);
    }
  }
  return strided;
}

TEST(HierarchyPooled, SlicedFoldsAreBitIdenticalAtEveryThreadCount) {
  // 5 hosts on 3 or 4 threads: a host count that is no multiple of either.
  const Topology hier({5}, 4);
  const Topology flat({4, 5});
  const rank_t m = hier.num_machines();
  const auto w = banded_workload(m, 1500);
  const auto values = interleave3(w);

  // The fold's slices are each leader's layer-1 letters: 5 pieces, cut
  // into chunks of 1024 bytes (85 positions at stride 3) when streamed.
  // Every host's fold has at least 3 slices, and core 1's band alone
  // covers a whole streamed slice of host 0 (positions [lo, hi) of the
  // union hold core 1's keys only).
  HierEngine probe(m, 1);
  HierAllreduce compiler(&probe, hier);
  const auto plan = compiler.compile(w.in_sets, w.out_sets);
  for (rank_t h = 0; h < hier.num_hosts(); ++h) {
    EXPECT_GE(plan->rank_plan(hier.leader_rank(h)).layers[0].group.size(),
              3u)
        << "host " << h;
  }
  const IntraHost& host0 = plan->intra_host(0);
  const std::vector<std::size_t>& split =
      plan->rank_plan(0).layers[0].out_split;
  const std::size_t chunk = 1024 / (sizeof(float) * 3);
  bool band_holds_a_slice = false;
  for (std::size_t q = 0; q + 1 < split.size(); ++q) {
    for (std::size_t lo = split[q]; lo < split[q + 1]; lo += chunk) {
      const std::size_t hi = std::min(split[q + 1], lo + chunk);
      bool others = false;
      for (const std::size_t i : {0, 2, 3}) {
        const PosMap& map = host0.out_maps[i];
        const auto first = std::lower_bound(map.begin(), map.end(), lo);
        others = others || (first != map.end() && *first < hi);
      }
      band_holds_a_slice = band_holds_a_slice || !others;
    }
  }
  EXPECT_TRUE(band_holds_a_slice);

  ParallelBspEngine<float> fe(m, 1);
  HierAllreduce flat_ar(&fe, flat);
  flat_ar.configure(w.in_sets, w.out_sets);
  const auto flat_results = flat_ar.reduce_strided(values, 3);

  // Streaming reprices the wire, so modeled times compare within a mode.
  for (const bool streamed : {false, true}) {
    const PooledRun reference = run_pooled(hier, w, values, 3, 1, streamed);
    for (const unsigned threads : {1u, 3u, 4u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads" +
                   (streamed ? ", streamed" : ""));
      const PooledRun run = run_pooled(hier, w, values, 3, threads, streamed);
      EXPECT_EQ(run.results, flat_results);
      EXPECT_EQ(run.intra, reference.intra);
      EXPECT_EQ(run.down, reference.down);
      EXPECT_EQ(run.up, reference.up);
    }
  }
}

TEST(HierarchyPooled, RanksDeadAtReplayMatchAtEveryThreadCount) {
  const Topology hier({5}, 4);
  const rank_t m = hier.num_machines();
  const auto w = banded_workload(m, 1600);
  const auto values = interleave3(w);
  // Core 1 of host 0 (its band leaves whole slices with no live member),
  // then host 2's canonical leader.
  for (const rank_t dead : {rank_t{1}, hier.leader_rank(2)}) {
    SCOPED_TRACE("rank " + std::to_string(dead) + " dead at replay");
    const auto expected =
        run_pooled(hier, w, values, 3, 1, false, dead).results;
    EXPECT_TRUE(expected[dead].empty());
    if (dead == hier.leader_rank(2)) {
      // The leaderless host's members resolve every key to the identity.
      const rank_t member = dead + 1;
      EXPECT_EQ(expected[member],
                std::vector<float>(3 * w.in_sets[member].size(), 0.0f));
    } else {
      // A dead member's contribution is lost and nothing else: the others
      // read what a live member contributing zeros would leave them.
      auto zeroed = values;
      std::fill(zeroed[dead].begin(), zeroed[dead].end(), 0.0f);
      auto alive = run_pooled(hier, w, zeroed, 3, 1, false).results;
      alive[dead].clear();
      EXPECT_EQ(expected, alive);
    }
    for (const bool streamed : {false, true}) {
      const PooledRun reference =
          run_pooled(hier, w, values, 3, 1, streamed, dead);
      EXPECT_EQ(reference.results, expected);
      for (const unsigned threads : {3u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads" +
                     (streamed ? ", streamed" : ""));
        const PooledRun run =
            run_pooled(hier, w, values, 3, threads, streamed, dead);
        EXPECT_EQ(run.results, reference.results);
        EXPECT_EQ(run.intra, reference.intra);
        EXPECT_EQ(run.down, reference.down);
        EXPECT_EQ(run.up, reference.up);
      }
    }
  }
}

TEST(HierarchyPooled, PooledFingerprintMatchesTheSerialOne) {
  const Topology hier({5}, 4);
  const rank_t m = hier.num_machines();
  const auto w = banded_workload(m, 1700);

  // The digest split chains to fingerprint_key_sets.
  std::vector<std::uint64_t> in_digests;
  std::vector<std::uint64_t> out_digests;
  for (rank_t r = 0; r < m; ++r) {
    in_digests.push_back(set_digest(w.in_sets[r].keys()));
    out_digests.push_back(set_digest(w.out_sets[r].keys()));
  }
  EXPECT_EQ(chain_set_digests(in_digests, out_digests),
            fingerprint_key_sets(w.in_sets, w.out_sets));

  HierEngine one(m, 1);
  HierEngine four(m, 4);
  HierAllreduce on_one(&one, hier);
  HierAllreduce on_four(&four, hier);
  EXPECT_EQ(on_one.compile(w.in_sets, w.out_sets)->fingerprint(),
            on_four.compile(w.in_sets, w.out_sets)->fingerprint());

  PlanCache cache(4);
  HierAllreduce first(&one, hier);
  HierAllreduce second(&four, hier);
  EXPECT_FALSE(first.configure_cached(cache, w.in_sets, w.out_sets));
  EXPECT_TRUE(second.configure_cached(cache, w.in_sets, w.out_sets));
  EXPECT_EQ(second.plan().get(), first.plan().get());
}

TEST(HierarchyPooled, FinishConfigureThrowsTheLowestRanksError) {
  const Topology hier({5}, 4);
  const rank_t m = hier.num_machines();
  auto w = random_workload<float>(m, 300, 0.2, 0.3, 1800);
  // Two indices nobody contributes, whose bottom owners are hosts 1 and 3.
  // Host 1's leader is the lower failing rank, whichever thread gets there
  // first.
  const auto owner = [&](index_t index) {
    for (rank_t h = 0; h < hier.num_hosts(); ++h) {
      if (hier.key_range(hier.num_layers(), hier.leader_rank(h))
              .contains(hash_index(index))) {
        return h;
      }
    }
    return hier.num_hosts();
  };
  index_t low = 0;
  index_t high = 0;
  for (index_t index = 1000; low == 0 || high == 0; ++index) {
    if (low == 0 && owner(index) == 1) low = index;
    if (high == 0 && owner(index) == 3) high = index;
  }
  const auto request = [&](rank_t r, index_t index) {
    std::vector<key_t> keys(w.in_sets[r].begin(), w.in_sets[r].end());
    keys.push_back(hash_index(index));
    w.in_sets[r] = KeySet::from_keys(keys);
  };
  request(2, high);   // rank 2 is on host 0
  request(19, low);   // rank 19 is on host 4
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    HierEngine engine(m, threads);
    HierAllreduce allreduce(&engine, hier);
    testing::expect_check_message(
        [&] { allreduce.configure(w.in_sets, w.out_sets); },
        "requested index " + std::to_string(low) + " was contributed");
  }
}

// ---- Guard rails ----

TEST(HierarchyGuards, CombinedModeRejectsHierarchicalTopologies) {
  const Topology hier({2, 2}, 2);
  const rank_t m = hier.num_machines();
  const auto w = random_workload<float>(m, 60, 0.25, 0.4, 1300);
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, hier);
  testing::expect_check_message(
      [&] {
        (void)allreduce.reduce_with_config(w.in_sets, w.out_sets,
                                           w.out_values);
      },
      "reduce_with_config() supports flat topologies only");
}

}  // namespace
}  // namespace kylix
