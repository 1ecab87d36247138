// Replay golden: every observable of a replayed reduce, pinned to a recorded
// run and asserted at 1, 2, 3 and 4 engine threads.
//
// The executor decides how a replay's work is cut into pooled tasks; none of
// that may show. Each case configures once and replays three reduces on the
// same allreduce (so warm buffers, and letters a FaultPlan delayed into the
// next reduce, are covered), then summarizes as one line of text:
//
//   * the results' bit patterns (a digest in rank order),
//   * the Trace's message events in order,
//   * the modeled per-round times and both intra times, as hex floats,
//   * the last reduce's StreamStats,
//   * the executor's flight events (wall-clock fields left out).
//
// The cases cross flat {4,2} and {8,4,2}, two-tier {2,2}x4 and {4}x8 and a
// one-host {}x4 plan with letter-at-once and streamed replay at strides 1
// and 8, a FaultPlan with drops, duplicates, delays and a crash at a round
// boundary, a leader and a member dead at replay, and the §V replicated
// engine at s = 2.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/failure.hpp"
#include "cluster/fault_plan.hpp"
#include "cluster/netmodel.hpp"
#include "cluster/timing.hpp"
#include "cluster/trace.hpp"
#include "comm/fault_channel.hpp"
#include "comm/parallel.hpp"
#include "comm/replicated.hpp"
#include "core/allreduce.hpp"
#include "core/topology.hpp"
#include "obs/flight_recorder.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using testing::random_workload;

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
};

std::string hex_of(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

enum class Faults { kNone, kChaos, kDeadLeader, kDeadMember };

struct Case {
  const char* name;
  Topology topo;
  std::uint32_t stride;
  bool streamed;
  Faults faults = Faults::kNone;
  std::uint32_t replication = 1;  ///< 2: ReplicatedBsp
};

/// The contributions of `w` at `stride`, non-integer so that every float
/// sum depends on its combine order.
std::vector<std::vector<float>> strided_values(
    const testing::Workload<float>& w, std::uint32_t stride) {
  std::vector<std::vector<float>> out(w.out_values.size());
  for (std::size_t r = 0; r < w.out_values.size(); ++r) {
    for (const float v : w.out_values[r]) {
      for (std::uint32_t c = 0; c < stride; ++c) {
        out[r].push_back(v * 0.1f + 1.0f / 3.0f + 0.013f * c);
      }
    }
  }
  return out;
}

template <typename Engine>
std::string summarize(const Case& c, Engine& engine, FailureModel* failures,
                      Trace& trace, TimingAccumulator& timing) {
  const rank_t m = c.topo.num_machines();
  const auto w = random_workload<float>(m, 700, 0.3, 0.4, 7 + m);
  const auto values = strided_values(w, c.stride);
  const NetworkModel net = NetworkModel::ec2_like();
  const ComputeModel compute;
  SparseAllreduce<float, OpSum, Engine> allreduce(&engine, c.topo, &compute);
  allreduce.set_network(&net);
  allreduce.configure(w.in_sets, w.out_sets);
  allreduce.set_streaming(c.streamed);
  allreduce.set_chunk_bytes(96 * c.stride);  // several chunks per letter
  obs::FlightRecorder recorder(m);
  allreduce.set_flight_recorder(&recorder);

  FaultPlan plan(engine.num_ranks() * c.replication, 31 + m);
  FaultChannel<float> channel(&plan);
  if (c.faults == Faults::kChaos) {
    FaultPlan::TransientRates rates;
    rates.drop = 0.1;
    rates.duplicate = 0.1;
    rates.delay = 0.1;
    plan.set_transient_rates(rates);
    // A crash at a round boundary of the first reduce; with a single
    // inter-node layer it hits the up round.
    const std::uint16_t l = c.topo.num_layers();
    plan.crash_at(c.topo.hierarchical() ? c.topo.leader_rank(1) : 5,
                  l >= 2 ? Phase::kReduceDown : Phase::kReduceUp,
                  l >= 2 ? 2 : 1);
    engine.set_fault_channel(&channel);
  } else if (failures != nullptr && c.faults == Faults::kDeadLeader) {
    failures->kill(c.topo.leader_rank(2));
  } else if (failures != nullptr && c.faults == Faults::kDeadMember) {
    failures->kill(c.topo.leader_rank(1) + 1);
  }

  Digest results;
  for (int rep = 0; rep < 3; ++rep) {
    const auto out = allreduce.reduce_strided(values, c.stride);
    for (const auto& r : out) {
      results.add(std::uint64_t{r.size()});
      for (const float v : r) {
        results.add(std::uint64_t{std::bit_cast<std::uint32_t>(v)});
      }
    }
  }
  if (c.faults == Faults::kChaos) engine.set_fault_channel(nullptr);

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
  const StreamStats& st = allreduce.stream_stats();
  Digest flight;
  for (const obs::FlightEvent& e : recorder.merged_events()) {
    flight.add(static_cast<std::uint64_t>(e.kind));
    flight.add(static_cast<std::uint64_t>(e.phase));
    flight.add(std::uint64_t{e.layer});
    flight.add(e.bytes);
    if (e.kind != obs::FlightEventKind::kReplayEnd) flight.add(e.value);
  }
  std::ostringstream out;
  out << std::hex << "results " << results.h << " trace " << tr.n << ":"
      << tr.h << " rounds " << rounds.h << std::dec << " intra "
      << hex_of(timing.intra_time(Phase::kReduceDown)) << " "
      << hex_of(timing.intra_time(Phase::kReduceUp)) << " stream "
      << st.streamed << " " << st.chunk_bytes << " " << st.letters << " "
      << st.chunks << " " << st.blocks_flushed << " "
      << st.max_chunks_per_letter << " " << st.peak_letter_buffer_bytes
      << " " << st.peak_stream_buffer_bytes << " "
      << hex_of(st.overlap_weight) << " " << st.overlap_blocks << std::hex
      << " flight " << flight.n << ":" << flight.h << " faults "
      << plan.stats().dropped << " " << plan.stats().duplicated << " "
      << plan.stats().delayed << " " << plan.stats().crashes;
  return out.str();
}

std::string replay_summary(const Case& c, unsigned threads) {
  const rank_t m = c.topo.num_machines();
  const NetworkModel net = NetworkModel::ec2_like();
  const ComputeModel compute;
  Trace trace;
  if (c.replication > 1) {
    TimingAccumulator timing(m * c.replication, net, compute);
    ReplicatedBsp<float> engine(m, c.replication, nullptr, &trace, &timing,
                                threads);
    return summarize(c, engine, nullptr, trace, timing);
  }
  // A FaultPlan's scripted crashes reach an engine that adopts its
  // FailureModel, so chaos cases run with none of their own.
  FailureModel failures(m);
  FailureModel* own = c.faults == Faults::kChaos ? nullptr : &failures;
  TimingAccumulator timing(m, net, compute);
  ParallelBspEngine<float> engine(m, threads, own, &trace, &timing);
  return summarize(c, engine, own, trace, timing);
}

struct Golden {
  Case c;
  const char* summary;
};

// Recorded from the executor that consumed each inbox in its own rank's
// round callback (one pool task per rank).
const std::vector<Golden>& goldens() {
  static const std::vector<Golden> all = {
      {{"flat-4x2-s1", Topology({4, 2}), 1, false},
       "results 2a27e0fe84ebb510 trace 690:25a6d00e660962b "
       "rounds 86b2c10316aaa0fe intra 0x0p+0 0x0p+0 "
       "stream 0 0 96 96 0 1 1128 1128 0x0p+0 0 "
       "flight 1b:68f9387a6f96a4c1 faults 0 0 0 0"},
      {{"flat-4x2-s8-streamed", Topology({4, 2}), 8, true},
       "results 79a37f437ae21908 trace 1266:35247ba789ecb145 "
       "rounds 61d995486d82e366 intra 0x0p+0 0x0p+0 "
       "stream 1 768 96 298 225 4 9024 3072 0x1.2a70c9f559843p+6 225 "
       "flight 66:40e6cf05e99d22dd faults 0 0 0 0"},
      {{"flat-8x4x2-s1-streamed", Topology({8, 4, 2}), 1, true},
       "results c974d80847e15cb4 trace afa5:f574d0d7a4c213fb "
       "rounds 32ee93c799d32440 intra 0x0p+0 0x0p+0 "
       "stream 1 96 1792 2699 1530 3 1216 768 0x1.c5e1d5060a8f1p+8 1530 "
       "flight 84:e7ce5714f4a3f92f faults 0 0 0 0"},
      {{"flat-8x4x2-s8", Topology({8, 4, 2}), 8, false},
       "results 5fdae4187aba30ef trace 7a80:a748641fa9760922 "
       "rounds 14c59b939c4fa7c8 intra 0x0p+0 0x0p+0 "
       "stream 0 0 1792 1792 0 1 9728 9728 0x0p+0 0 "
       "flight 1b:9f313f8c565994f0 faults 0 0 0 0"},
      {{"hier-2x2x4-s1-streamed", Topology({2, 2}, 4), 1, true},
       "results 6017de786b1824f5 trace 1301:132721d65a7ac69a "
       "rounds 4c929cffd47cfba4 "
       "intra 0x1.1e65c6ae4fb42p-16 0x1.50ce8ace35e9ap-16 "
       "stream 1 96 32 319 251 14 2540 192 0x1.8ea5207ae8b81p+6 251 "
       "flight 66:b642f06cc00b6e89 faults 0 0 0 0"},
      {{"hier-2x2x4-s8", Topology({2, 2}, 4), 8, false},
       "results c01c82f020a1ab50 trace 230:5e6f73bc069a52e "
       "rounds eba3c88a8c3b8177 "
       "intra 0x1.b8f27a5b65d74p-15 0x1.414ac56d7f56cp-14 "
       "stream 0 0 32 32 0 1 20320 20320 0x0p+0 0 "
       "flight 1b:80a033a2c04f63f4 faults 0 0 0 0"},
      {{"hier-4x8-s8-streamed", Topology({4}, 8), 8, true},
       "results 25c81a22878ff678 trace e60:c05a00a5b9c8a3e0 "
       "rounds 6177976d34b5ee28 "
       "intra 0x1.b0945ceec36cbp-14 0x1.3bf023c78dfc3p-13 "
       "stream 1 768 32 240 147 8 23232 3072 0x1.e48d1d64c6112p+5 147 "
       "flight 48:5d9827dfcdbcfec1 faults 0 0 0 0"},
      {{"hier-4x8-s1", Topology({4}, 8), 1, false},
       "results 2df34226a0d5dd4f trace 230:8e94864c53b08f69 "
       "rounds 3459505a378f4761 "
       "intra 0x1.1c4e3f5327197p-15 0x1.4e2139fb3d3c6p-15 "
       "stream 0 0 32 32 0 1 2904 2904 0x0p+0 0 "
       "flight 1b:ed18f4a3f6006ead faults 0 0 0 0"},
      {{"onehost-4-s8", Topology({}, 4), 8, true},
       "results 361af42c45fd4530 trace 0:14650fb0739d0383 "
       "rounds 14650fb0739d0383 "
       "intra 0x1.b55c6dbf203bdp-15 0x1.ef76f96438167p-15 "
       "stream 1 768 0 0 0 1 0 0 0x0p+0 0 "
       "flight 1b:79076db4f7048d20 faults 0 0 0 0"},
      {{"onehost-4-s1", Topology({}, 4), 1, false},
       "results 8f9412f12fd494a0 trace 0:14650fb0739d0383 "
       "rounds 14650fb0739d0383 "
       "intra 0x1.1d8043873e4d4p-16 0x1.2c06e6708443ep-16 "
       "stream 0 0 0 0 0 1 0 0 0x0p+0 0 "
       "flight 1b:bd4c31ec4cd03f55 faults 0 0 0 0"},
      {{"chaos-flat-8x4x2-s1-streamed", Topology({8, 4, 2}), 1, true,
        Faults::kChaos},
       "results c924b5a3757431c6 trace ba68:400004835a0eda50 "
       "rounds 384a6467e843bb68 intra 0x0p+0 0x0p+0 "
       "stream 1 96 1764 2657 1507 3 1136 768 0x1.e4aa07435ceffp+8 1507 "
       "flight 89:caf62ca8cea80df2 faults 27b 296 27e 1"},
      {{"chaos-hier-2x2x4-s8-streamed", Topology({2, 2}, 4), 8, true,
        Faults::kChaos},
       "results 860130767a41a3b6 trace f1e:45f6bb5df284ed5e "
       "rounds ad9ae9ac88072af1 "
       "intra 0x1.b29263f03f6dap-15 0x1.414ac56d7f56cp-14 "
       "stream 1 768 24 240 190 14 18784 1536 0x1.72a5799d6b4b1p+6 190 "
       "flight 66:a8c01aa9d1d63e0b faults 1a e 19 1"},
      {{"chaos-hier-4x8-s1", Topology({4}, 8), 1, false, Faults::kChaos},
       "results 745226530f10738d trace 1e5:fc62111cfd51bf8c "
       "rounds a1434b3fc4f3067e "
       "intra 0x1.1c0e7e72f7996p-15 0x1.4e2139fb3d3c6p-15 "
       "stream 0 0 24 24 0 1 2180 2180 0x0p+0 0 "
       "flight 1b:ed18f4a3f6006ead faults 4 5 3 1"},
      {{"dead-leader-4x8-s8-streamed", Topology({4}, 8), 8, true,
        Faults::kDeadLeader},
       "results fb4c68f2e358a780 trace afa:2eeba7404e6d0120 "
       "rounds 2cb63d5b1f1fb312 "
       "intra 0x1.b0945ceec36cbp-14 0x1.3836a832b990bp-13 "
       "stream 1 768 24 182 111 8 17472 2304 0x1.b83decfa2198p+5 111 "
       "flight 48:d03997ca24196f3d faults 0 0 0 0"},
      {{"dead-member-4x8-s1", Topology({4}, 8), 1, false, Faults::kDeadMember},
       "results 43637cb89a8742ca trace 230:8e94864c53b08f69 "
       "rounds 3459505a378f4761 "
       "intra 0x1.1c0e7e72f7996p-15 0x1.4e2139fb3d3c6p-15 "
       "stream 0 0 32 32 0 1 2904 2904 0x0p+0 0 "
       "flight 1b:ed18f4a3f6006ead faults 0 0 0 0"},
      {{"dead-member-2x2x4-s8-streamed", Topology({2, 2}, 4), 8, true,
        Faults::kDeadMember},
       "results fa9007921dac1309 trace 1301:6585c18bf5c79478 "
       "rounds ca1fdb79d03d0737 "
       "intra 0x1.b29263f03f6dap-15 0x1.414ac56d7f56cp-14 "
       "stream 1 768 32 319 251 14 20320 1536 0x1.8ea5207ae8b81p+6 251 "
       "flight 66:24e7481334b33b7e faults 0 0 0 0"},
      {{"replicated-4x2-s1-streamed", Topology({4, 2}), 1, true,
        Faults::kChaos, 2},
       "results 2a27e0fe84ebb510 trace 320a:8b239235c6a5ec15 "
       "rounds 52421a45de928a0b intra 0x0p+0 0x0p+0 "
       "stream 1 96 96 298 225 4 1128 384 0x1.2a70c9f559843p+6 225 "
       "flight 66:c3361b14ac2f58a7 faults de d8 be 1"},
      {{"replicated-hier-2x2x2-s8", Topology({2, 2}, 2), 8, false,
        Faults::kNone, 2},
       "results 7698ee5da74cd49a trace 460:a28da4785f8cc4cb "
       "rounds 89e8ad4de69dcf18 "
       "intra 0x1.ba8a7ff62f71cp-16 0x1.31767834f88ddp-15 "
       "stream 0 0 32 32 0 1 13920 13920 0x0p+0 0 "
       "flight 1b:b89f6880e9a7f8c8 faults 0 0 0 0"},
  };
  return all;
}

TEST(ReplayGolden, EveryCaseMatchesTheRecordedRunAtEveryThreadCount) {
  for (const Golden& g : goldens()) {
    for (const unsigned threads : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE(std::string(g.c.name) + ", " + std::to_string(threads) +
                   " threads");
      EXPECT_EQ(replay_summary(g.c, threads), g.summary);
    }
  }
}

}  // namespace
}  // namespace kylix
