// Plan golden: every field of a compiled CollectivePlan, pinned to a
// recorded compile and asserted at 1 and 4 engine threads.
//
// ReplayGolden pins what replays observe; this test pins what configuration
// writes. Each case compiles once and summarizes the plan as one line:
//
//   * the fingerprint and the compiled chunk size,
//   * every RankPlan in rank order: configured, in0, out0_size, in_sizes,
//     out_sizes, bottom_map, missing_bottom, and every PlanLayer's group,
//     splits, maps, received sizes, out-union size and in_prev_size,
//   * every IntraHost: leader, members, maps and out-union size,
//   * the configuration's Trace and modeled per-round times,
//   * in combined mode, the results' bit patterns.
//
// The cases are flat {8,4,2} and {3,5}, the binary butterfly over 64
// ranks, two-tier {4} x 4 cores, combined configure+reduce, a FaultPlan
// that crashes a rank at {config, 2}, and one that revives a rank for
// round 1 and another for round 3.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "cluster/netmodel.hpp"
#include "cluster/timing.hpp"
#include "cluster/trace.hpp"
#include "comm/fault_channel.hpp"
#include "comm/parallel.hpp"
#include "core/allreduce.hpp"
#include "core/topology.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using testing::random_workload;
using Allreduce = SparseAllreduce<float, OpSum, ParallelBspEngine<float>>;

/// FNV-1a over 64-bit words: order-sensitive digests.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  std::uint64_t n = 0;
  void add(std::uint64_t x) {
    ++n;
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  template <typename T>
  void add_all(const std::vector<T>& xs) {
    add(std::uint64_t{xs.size()});
    for (const T& x : xs) add(static_cast<std::uint64_t>(x));
  }
  void add_maps(const std::vector<PosMap>& maps) {
    add(std::uint64_t{maps.size()});
    for (const PosMap& map : maps) add_all(map);
  }
};

enum class Mode { kSeparate, kCombined, kCrashAtConfig2, kRevived };

struct Case {
  const char* name;
  Topology topo;
  Mode mode = Mode::kSeparate;
};

std::string plan_summary(const Case& c, unsigned threads) {
  const rank_t m = c.topo.num_machines();
  // Sparse contributions under the crash, so that some requested keys had
  // no contributor but the crashed rank's layer-1 group.
  const double out_prob = c.mode == Mode::kCrashAtConfig2 ? 0.02 : 0.3;
  const auto w = random_workload<float>(m, 600, out_prob, 0.4, 11 + m);
  const NetworkModel net = NetworkModel::ec2_like();
  const ComputeModel compute;
  Trace trace;
  TimingAccumulator timing(m, net, compute);
  FaultPlan faults(m, 5);
  FaultChannel<float> channel(&faults);
  ParallelBspEngine<float> engine(m, threads, nullptr, &trace, &timing);
  if (c.mode == Mode::kCrashAtConfig2) {
    faults.crash_at(5, Phase::kConfig, 2);
    engine.set_fault_channel(&channel);
  } else if (c.mode == Mode::kRevived) {
    // Dead before the pass and back for round 1; dead in round 2 and back
    // for round 3, so it sends what it did not unite.
    faults.failures().kill(6);
    faults.revive_at(6, Phase::kConfig, 1);
    faults.crash_at(5, Phase::kConfig, 2);
    faults.revive_at(5, Phase::kConfig, 3);
    engine.set_fault_channel(&channel);
  }
  Allreduce allreduce(&engine, c.topo, &compute);
  allreduce.set_network(&net);
  Digest results;
  if (c.mode == Mode::kCombined) {
    std::vector<std::vector<float>> values = w.out_values;
    for (auto& v : values) {
      for (float& x : v) x = x * 0.1f + 1.0f / 3.0f;
    }
    for (const auto& r : allreduce.reduce_with_config(w.in_sets, w.out_sets,
                                                      std::move(values))) {
      results.add(std::uint64_t{r.size()});
      for (const float x : r) {
        results.add(std::uint64_t{std::bit_cast<std::uint32_t>(x)});
      }
    }
  } else {
    allreduce.configure(w.in_sets, w.out_sets);
  }
  engine.set_fault_channel(nullptr);

  const CollectivePlan& plan = *allreduce.plan();
  if (c.mode == Mode::kCrashAtConfig2) {
    EXPECT_FALSE(plan.rank_plan(5).configured);
    EXPECT_TRUE(plan.degraded());
  } else if (c.mode == Mode::kRevived) {
    EXPECT_TRUE(plan.rank_plan(5).configured);
    EXPECT_TRUE(plan.rank_plan(6).configured);
  }
  Digest ranks;
  for (rank_t r = 0; r < plan.num_ranks(); ++r) {
    const RankPlan& rp = plan.rank_plan(r);
    ranks.add(std::uint64_t{rp.configured});
    ranks.add_all(std::vector<key_t>(rp.in0.begin(), rp.in0.end()));
    ranks.add(std::uint64_t{rp.out0_size});
    ranks.add_all(rp.in_sizes);
    ranks.add_all(rp.out_sizes);
    ranks.add(std::uint64_t{rp.layers.size()});
    for (const PlanLayer& cfg : rp.layers) {
      ranks.add_all(cfg.group);
      ranks.add_all(cfg.in_split);
      ranks.add_all(cfg.out_split);
      ranks.add_maps(cfg.in_maps);
      ranks.add_maps(cfg.out_maps);
      ranks.add_all(cfg.recv_out_sizes);
      ranks.add(std::uint64_t{cfg.out_union_size});
      ranks.add(std::uint64_t{cfg.in_prev_size});
    }
    ranks.add_all(rp.bottom_map);
    ranks.add_all(rp.missing_bottom);
  }
  Digest intra;
  for (const IntraHost& ih : plan.intra_hosts()) {
    intra.add(std::uint64_t{ih.leader});
    intra.add_all(ih.members);
    intra.add_maps(ih.out_maps);
    intra.add_maps(ih.in_maps);
    intra.add(std::uint64_t{ih.out_union_size});
  }
  Digest tr;
  for (const MsgEvent& e : trace.events()) {
    tr.add(static_cast<std::uint64_t>(e.phase));
    tr.add(std::uint64_t{e.layer});
    tr.add(std::uint64_t{e.src});
    tr.add(std::uint64_t{e.dst});
    tr.add(e.bytes);
  }
  Digest rounds;
  for (const auto& rt : timing.per_round_times()) {
    rounds.add(static_cast<std::uint64_t>(rt.phase));
    rounds.add(std::uint64_t{rt.layer});
    rounds.add(rt.seconds);
  }
  rounds.add(timing.intra_time(Phase::kConfig));
  std::ostringstream out;
  out << std::hex << "plan " << plan.fingerprint() << " " << plan.chunk_bytes()
      << " ranks " << ranks.n << ":" << ranks.h << " intra " << intra.n << ":"
      << intra.h << " trace " << tr.n << ":" << tr.h << " rounds " << rounds.h
      << " results " << results.n << ":" << results.h;
  return out.str();
}

struct Golden {
  Case c;
  const char* summary;
};

// Recorded from the compiler that kept every layer's union as a node set
// and split it into the next round's letters in the produce callback.
const std::vector<Golden>& goldens() {
  static const std::vector<Golden> all = {
      {{"flat-8x4x2", Topology({8, 4, 2})},
       "plan 6ed1eaf8df2535fb 4b1a12 "
       "ranks f52b:adbc58b19bec4092 intra 0:14650fb0739d0383 "
       "trace 1180:39c76870c04edd1c rounds b992ebffd89b275a "
       "results 0:14650fb0739d0383"},
      {{"flat-3x5", Topology({3, 5})},
       "plan c5219a2b53123118 4b1a12 "
       "ranks 3f1e:d1d66ba41be37165 intra 0:14650fb0739d0383 "
       "trace 258:31dffa78e0293597 rounds 7a345d5c5b864751 "
       "results 0:14650fb0739d0383"},
      {{"binary-64", Topology::binary(64)},
       "plan ce902fd1a9601f06 4b1a12 "
       "ranks 1a169:5158a9def8eddefd intra 0:14650fb0739d0383 "
       "trace f00:17b41e8b8ddaa52d rounds ae1a9d74510f7994 "
       "results 0:14650fb0739d0383"},
      {{"hier-4x4", Topology({4}, 4)},
       "plan b9c37164ff81d83 4b1a12 "
       "ranks 2156:33eb22ae7170dccf intra 1a22:186e6bfa272bb153 "
       "trace 50:742f87b826f4e1b1 rounds fa97d5fada06e93f "
       "results 0:14650fb0739d0383"},
      {{"combined-4x2x2", Topology({4, 2, 2}), Mode::kCombined},
       "plan 0 4b1a12 "
       "ranks 490f:165ddbaac0dfc3e0 intra 0:14650fb0739d0383 "
       "trace 500:6e550fc184d5d0f3 rounds c9bbfb75b6d7df56 "
       "results ecc:8b644c20e79c3379"},
      {{"crash-config2-4x4x2", Topology({4, 4, 2}), Mode::kCrashAtConfig2},
       "plan 9fdc29594bca5e83 4b1a12 "
       "ranks 37b3:63cff2f0be5c2cc6 intra 0:14650fb0739d0383 "
       "trace 622:cbcc63c90ca9756b rounds a05a0c3e4e17401c "
       "results 0:14650fb0739d0383"},
      {{"revived-4x4x2", Topology({4, 4, 2}), Mode::kRevived},
       "plan a92215226bf63ef6 4b1a12 "
       "ranks 882b:87c5987e052daa10 intra 0:14650fb0739d0383 "
       "trace 62c:fad4f8d7e89148 rounds d71ba647c0528498 "
       "results 0:14650fb0739d0383"},
  };
  return all;
}

TEST(PlanGolden, EveryFieldMatchesTheRecordedCompileAtOneAndFourThreads) {
  for (const Golden& g : goldens()) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(g.c.name) + ", " + std::to_string(threads) +
                   " threads");
      EXPECT_EQ(plan_summary(g.c, threads), g.summary);
    }
  }
}

}  // namespace
}  // namespace kylix
