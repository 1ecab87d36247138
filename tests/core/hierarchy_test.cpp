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
// timing split, canonical-leader degraded semantics, and that the host
// unions compile the same plan at every thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/failure.hpp"
#include "common/check.hpp"
#include "cluster/netmodel.hpp"
#include "cluster/timing.hpp"
#include "cluster/trace.hpp"
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
    EXPECT_EQ(x.up_capacity, y.up_capacity);
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
