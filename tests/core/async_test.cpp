// AsyncExecutor functional suite: many in-flight plan replays on one
// modeled timeline. Covers clean multi-stream bit-identity against the
// serial executor, the pending-admission path (more streams than lanes),
// strided and chunked-streaming replays, modeled-clock latency accounting
// (overlap must beat the serialized schedule), the golden modeled
// timeline, faulted streams against the one-thread engine + FaultChannel
// oracle, the mid-stream revival refusal, flight-recorder stream events,
// reset()/resubmit reuse, and API misuse: stale stream tags and the
// serial executor's contribution checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cluster/failure.hpp"
#include "cluster/fault_plan.hpp"
#include "cluster/netmodel.hpp"
#include "comm/fault_channel.hpp"
#include "comm/parallel.hpp"
#include "core/allreduce.hpp"
#include "core/async_executor.hpp"
#include "obs/flight_recorder.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using testing::Workload;
using testing::expect_check_message;
using testing::random_workload;

/// Compile one plan for the workload through a throwaway allreduce.
template <typename V>
std::shared_ptr<const CollectivePlan> compile_plan(const Topology& topo,
                                                   const Workload<V>& w) {
  ParallelBspEngine<V> engine(topo.num_machines(), 1);
  SparseAllreduce<V, OpSum, ParallelBspEngine<V>> compiler(&engine, topo);
  auto plan = compiler.compile(w.in_sets, w.out_sets);
  EXPECT_NE(plan, nullptr);
  return plan;
}

/// Serial reference: replay the plan once on a fresh one-thread engine
/// (optionally fault-wrapped), mirroring one async stream.
template <typename V>
std::vector<std::vector<V>> serial_replay(
    const std::shared_ptr<const CollectivePlan>& plan,
    std::vector<std::vector<V>> values, std::uint32_t stride = 1,
    bool streaming = false, std::uint64_t chunk_override = 0,
    FaultPlan* faults = nullptr) {
  const rank_t m = plan->num_ranks();
  ParallelBspEngine<V> engine(m, 1);
  std::optional<FaultChannel<V>> channel;
  if (faults != nullptr) {
    channel.emplace(faults);
    engine.set_fault_channel(&*channel);
  }
  SparseAllreduce<V, OpSum, ParallelBspEngine<V>> ar(&engine, plan->topology());
  ar.configure(plan);
  ar.set_streaming(streaming);
  ar.set_chunk_bytes(chunk_override);
  return ar.reduce_strided(std::move(values), stride);
}

TEST(AsyncExecutor, ManyStreamsBitIdenticalToSerialReplay) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  auto w = random_workload<float>(m, 180, 0.2, 0.4, 901);
  const auto plan = compile_plan(topo, w);

  AsyncExecutor<float> ax;
  typename AsyncExecutor<float>::Options opts;
  opts.window = 3;  // fewer lanes than streams: exercises pending admission
  ax.bind(plan, opts);

  constexpr int kStreams = 8;
  std::vector<Workload<float>> inputs;
  std::vector<std::uint32_t> tags;
  for (int i = 0; i < kStreams; ++i) {
    auto wi = w;
    for (auto& values : wi.out_values) {
      for (auto& v : values) v += static_cast<float>(i);
    }
    tags.push_back(ax.submit(wi.out_values));
    inputs.push_back(std::move(wi));
  }
  ax.drain();
  for (int i = 0; i < kStreams; ++i) {
    SCOPED_TRACE("stream " + std::to_string(i));
    const auto serial = serial_replay(plan, inputs[i].out_values);
    testing::expect_matches_oracle<float>(inputs[i], serial);
    EXPECT_EQ(ax.take_result(tags[i]), serial);
    EXPECT_FALSE(ax.degraded_report(tags[i]).degraded);
    // Per-stream telemetry matches the serial executor's.
    ParallelBspEngine<float> engine(m, 1);
    SparseAllreduce<float, OpSum, ParallelBspEngine<float>> ar(&engine, topo);
    ar.configure(plan);
    (void)ar.reduce(inputs[i].out_values);
    EXPECT_EQ(ax.stream_stats(tags[i]).letters, ar.stream_stats().letters);
    EXPECT_EQ(ax.stream_stats(tags[i]).chunks, ar.stream_stats().chunks);
  }
}

TEST(AsyncExecutor, StridedAndStreamedReplaysMatchSerial) {
  const Topology topo({3, 3});
  const rank_t m = topo.num_machines();
  auto w = random_workload<double>(m, 150, 0.25, 0.4, 902);
  const auto plan = compile_plan(topo, w);

  // Interleave 2 payloads key-major, as reduce_strided expects.
  std::vector<std::vector<double>> strided(m);
  for (rank_t r = 0; r < m; ++r) {
    for (std::size_t p = 0; p < w.out_values[r].size(); ++p) {
      strided[r].push_back(w.out_values[r][p]);
      strided[r].push_back(w.out_values[r][p] * 3 + 1);
    }
  }

  AsyncExecutor<double> ax;
  typename AsyncExecutor<double>::Options opts;
  opts.window = 4;
  opts.stride = 2;
  opts.streaming = true;
  opts.chunk_bytes_override = 128;  // tiny chunks: force real chunking
  ax.bind(plan, opts);
  std::vector<std::uint32_t> tags;
  for (int i = 0; i < 4; ++i) tags.push_back(ax.submit(strided));
  ax.drain();
  const auto serial = serial_replay(plan, strided, 2, true, 128);
  for (const std::uint32_t tag : tags) {
    EXPECT_EQ(ax.take_result(tag), serial);
    EXPECT_TRUE(ax.stream_stats(tag).streamed);
    EXPECT_GT(ax.stream_stats(tag).max_chunks_per_letter, 1u);
  }
}

TEST(AsyncExecutor, OverlappedStreamsBeatSerializedModeledMakespan) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  auto w = random_workload<float>(m, 400, 0.3, 0.5, 903);
  const auto plan = compile_plan(topo, w);
  const NetworkModel net;
  const ComputeModel compute;

  constexpr int kStreams = 8;
  auto run = [&](std::uint32_t window) {
    AsyncExecutor<float> ax;
    typename AsyncExecutor<float>::Options opts;
    opts.window = window;
    opts.network = &net;
    opts.compute = &compute;
    ax.bind(plan, opts);
    for (int i = 0; i < kStreams; ++i) (void)ax.submit(w.out_values);
    ax.drain();
    EXPECT_EQ(ax.completion_latencies().size(), kStreams);
    for (const double lat : ax.completion_latencies()) EXPECT_GT(lat, 0.0);
    return ax.makespan_seconds();
  };
  const double serialized = run(1);
  const double overlapped = run(kStreams);
  EXPECT_GT(serialized, 0.0);
  // Overlap must recover real idle time, not round to the same schedule.
  EXPECT_LT(overlapped, serialized);
  EXPECT_GT(serialized / overlapped, 1.1);
}

/// One fixed modeled-timeline case for the golden test below.
struct TimelineCase {
  std::vector<std::uint32_t> degrees;
  std::uint32_t stride = 1;
  std::uint64_t chunk_bytes = 0;  ///< streamed with this override when > 0
  std::uint32_t window = 1;
  int streams = 1;
  bool faulted = false;
};

/// Push `c.streams` reduces through one executor on the default network
/// clock and return {makespan, max tx busy, completion_seconds per tag}.
/// Faulted streams each get their own FaultPlan: transient drop, duplicate
/// and delay rates, plus a scripted crash on even streams and a rank dead
/// from the start on stream 1.
template <typename V>
std::vector<double> modeled_timeline(const TimelineCase& c,
                                     const ComputeModel* compute,
                                     std::uint64_t seed) {
  const Topology topo(c.degrees);
  const rank_t m = topo.num_machines();
  auto w = random_workload<V>(m, 160, 0.25, 0.4, seed);
  const auto plan = compile_plan(topo, w);
  for (auto& values : w.out_values) {
    std::vector<V> strided;
    for (const V v : values) {
      for (std::uint32_t k = 0; k < c.stride; ++k) {
        strided.push_back(v + static_cast<V>(k));
      }
    }
    values = std::move(strided);
  }
  const NetworkModel net;
  AsyncExecutor<V> ax;
  typename AsyncExecutor<V>::Options opts;
  opts.window = c.window;
  opts.stride = c.stride;
  opts.streaming = c.chunk_bytes != 0;
  opts.chunk_bytes_override = c.chunk_bytes;
  opts.network = &net;
  opts.compute = compute;
  ax.bind(plan, opts);
  std::vector<FaultPlan> faults;
  faults.reserve(static_cast<std::size_t>(c.streams));
  std::vector<std::uint32_t> tags;
  for (int i = 0; i < c.streams; ++i) {
    if (!c.faulted) {
      tags.push_back(ax.submit(w.out_values));
      continue;
    }
    FaultPlan& f = faults.emplace_back(m, seed * 31 + static_cast<unsigned>(i));
    FaultPlan::TransientRates rates;
    rates.drop = 0.1;
    rates.duplicate = 0.1;
    rates.delay = 0.1;
    f.set_transient_rates(rates);
    if (i % 2 == 0) {
      f.crash_at_round(static_cast<rank_t>(1 + i % (m - 1)),
                       static_cast<std::uint64_t>(i) % (2 * c.degrees.size()));
    }
    if (i == 1) f.failures().kill(m - 1);
    tags.push_back(ax.submit(w.out_values, &f));
  }
  ax.drain();
  std::vector<double> out{ax.makespan_seconds(), ax.max_tx_busy_seconds()};
  FaultStats hit;
  for (const std::uint32_t tag : tags) {
    out.push_back(ax.completion_seconds(tag));
    hit.crashes += ax.fault_stats(tag).crashes;
    hit.dropped += ax.fault_stats(tag).dropped;
    hit.duplicated += ax.fault_stats(tag).duplicated;
    hit.delayed += ax.fault_stats(tag).delayed;
  }
  if (c.faulted) {
    EXPECT_GT(hit.crashes, 0u);
    EXPECT_GT(hit.dropped, 0u);
    EXPECT_GT(hit.duplicated, 0u);
    EXPECT_GT(hit.delayed, 0u);
  }
  return out;
}

// Pins the modeled overlap timeline bit for bit: the claim order of the
// (time, lane, rank) heap, the fault fates each stream's letters met, and
// the NodeWork prices of every consume. Any reordering of NIC claims, wakes
// or admissions moves at least one of these hex-float values.
TEST(AsyncExecutor, ModeledTimelineMatchesTheParent) {
  // Slow enough that compute shapes the timeline, not only the NICs.
  const ComputeModel slow{.combine_rate = 2e5, .gather_rate = 3e5};
  const std::vector<TimelineCase> cases = {
      {{4, 2}, 1, 0, 3, 6, false},   // window smaller than the stream count
      {{3, 3}, 3, 96, 2, 5, false},  // stride 3, streamed, chunk override
      {{2, 2, 2}, 1, 64, 4, 4, false},
      {{4, 2}, 1, 0, 2, 4, true},    // drop, duplicate, delay and crashes
      {{2, 4}, 3, 128, 3, 5, true},
      {{2, 2, 2}, 1, 0, 1, 3, true},
  };
  const ComputeModel* const kNoCompute = nullptr;
  const std::vector<std::vector<double>> want = {
      {0x1.4498e81720c5ep-6, 0x1.134f1ff5542fap-6, 0x1.0e50991b9efa1p-7,
       0x1.0e506901173cdp-7, 0x1.2d7256e267c19p-7, 0x1.25d92736a7f8dp-7,
       0x1.278f733ad38c8p-7, 0x1.16eafea2d5b65p-7},
      {0x1.4b0161fe178a8p-6, 0x1.134f1ff5542fap-6, 0x1.e5097daee1bd5p-8,
       0x1.02e524c1dd2dep-7, 0x1.3f8795bb31a7ap-7, 0x1.3f8901f1c7adcp-7,
       0x1.54d834e503073p-7, 0x1.11a6b397f9598p-7},
      {0x1.1e9e68c5c317p-4, 0x1.f5e620b0cf982p-5, 0x1.76bfd3e66462ap-6,
       0x1.80726c8934297p-6, 0x1.a34be21031d0cp-6, 0x1.93dc875fd4e6ep-6,
       0x1.606ded207628ap-6},
      {0x1.073c6df1298cp-4, 0x1.f5e620b0cf982p-5, 0x1.4f232037fb3b7p-6,
       0x1.811e32210db77p-6, 0x1.9184947d39b85p-6, 0x1.9184947d39b9p-6,
       0x1.3c4a030f713c4p-6},
      {0x1.31624d15648d1p-6, 0x1.f8b86677fef62p-7, 0x1.b8919055d45f6p-7,
       0x1.de7ba9773ad26p-7, 0x1.f4c0a3f800fdep-7, 0x1.0ef854791223cp-6},
      {0x1.262281f4b2252p-6, 0x1.f8b86677fef62p-7, 0x1.aef52c849bc53p-7,
       0x1.d7ee87eb42efbp-7, 0x1.f07ff942483a6p-7, 0x1.03b889585fbbdp-6},
      {0x1.03eddbe587b6bp-6, 0x1.a8761bdf305cp-7, 0x1.d960285909d6bp-8,
       0x1.ce4f4bacde48ep-8, 0x1.04a7cf989b956p-7, 0x1.f17fe66874f66p-8},
      {0x1.e5185cbdfd188p-7, 0x1.a8761bdf305cp-7, 0x1.bdc27d44779edp-8,
       0x1.a03ef1a4bfdfcp-8, 0x1.eba200ef89d31p-8, 0x1.c796db62e2848p-8},
      {0x1.13b6250fd42dbp-5, 0x1.e791a7bb4dfcbp-6, 0x1.d3be652eff39bp-7,
       0x1.2aea5bcb4f40ap-6, 0x1.3a40b6fb58de7p-6, 0x1.2bbead76dc854p-6,
       0x1.b42f08a9d69dap-7},
      {0x1.01b54b76acf7bp-5, 0x1.e791a7bb4dfccp-6, 0x1.c9388ae45eb4cp-7,
       0x1.e85aa8e036f66p-7, 0x1.097b63548c69ep-6, 0x1.1ece517b2a95p-6,
       0x1.c797b749e1534p-7},
      {0x1.558b2b063e9a1p-6, 0x1.e1e50b27be6f8p-8, 0x1.95f2ff49daf8cp-8,
       0x1.de5be35eceedcp-8, 0x1.e1ddc9705081cp-8},
      {0x1.1b7e88319770ap-6, 0x1.e1e50b27be6f8p-8, 0x1.54de5a92127ecp-8,
       0x1.8c8c548777cb2p-8, 0x1.8c8f71acd378ap-8},
  };
  std::size_t row = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (const ComputeModel* compute : {&slow, kNoCompute}) {
      SCOPED_TRACE("case " + std::to_string(i) +
                   (compute != nullptr ? " with compute" : " network only"));
      const std::uint64_t seed = 930 + i;
      // Even cases run in float, odd ones in double.
      const std::vector<double> got =
          i % 2 == 0 ? modeled_timeline<float>(cases[i], compute, seed)
                     : modeled_timeline<double>(cases[i], compute, seed);
      if (row >= want.size() || got != want[row]) {
        std::string hex;
        for (const double v : got) {
          char buf[40];
          std::snprintf(buf, sizeof(buf), "%a, ", v);
          hex += buf;
        }
        ADD_FAILURE() << "timeline {" << hex << "}";
      }
      ++row;
    }
  }
}

TEST(AsyncExecutor, FaultedStreamsMatchSerialFaultChannelReplay) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  auto w = random_workload<float>(m, 160, 0.25, 0.45, 904);
  const auto plan = compile_plan(topo, w);

  auto make_faults = [&](std::uint64_t seed) {
    FaultPlan faults(m, seed);
    FaultPlan::TransientRates rates;
    rates.drop = 0.1;
    rates.duplicate = 0.08;
    rates.delay = 0.08;
    faults.set_transient_rates(rates);
    faults.crash_at_round(2, 1);  // rank 2 dies at the second down round
    return faults;
  };

  // Async: each stream gets its own identically-seeded FaultPlan.
  constexpr int kStreams = 3;
  std::vector<FaultPlan> async_faults;
  for (int i = 0; i < kStreams; ++i) {
    async_faults.push_back(make_faults(55));
  }
  AsyncExecutor<float> ax;
  typename AsyncExecutor<float>::Options opts;
  opts.window = kStreams;
  ax.bind(plan, opts);
  std::vector<std::uint32_t> tags;
  for (int i = 0; i < kStreams; ++i) {
    tags.push_back(ax.submit(w.out_values, &async_faults[i]));
  }
  ax.drain();

  FaultPlan serial_faults = make_faults(55);
  const auto serial = serial_replay(plan, w.out_values, 1, false, 0,
                                    &serial_faults);
  EXPECT_TRUE(serial[2].empty()) << "crashed rank yields no result";
  const FaultStats& oracle = serial_faults.stats();
  EXPECT_GT(oracle.dropped + oracle.duplicated + oracle.delayed, 0u);
  for (const std::uint32_t tag : tags) {
    EXPECT_EQ(ax.take_result(tag), serial);
    const FaultStats& got = ax.fault_stats(tag);
    EXPECT_EQ(got.crashes, oracle.crashes);
    EXPECT_EQ(got.dropped, oracle.dropped);
    EXPECT_EQ(got.duplicated, oracle.duplicated);
    EXPECT_EQ(got.delayed, oracle.delayed);
    EXPECT_FALSE(ax.degraded_report(tag).degraded)
        << "plain-channel faults degrade ranks, not groups";
  }
}

TEST(AsyncExecutor, MidStreamRevivalThrowsAndLeavesExecutorUsable) {
  // With no round barrier, a rank revived mid-stream has no point at which
  // to rejoin it. Such a stream is refused at submit() before it takes a
  // tag, whether a lane is free for it or it would have queued.
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  auto w = random_workload<float>(m, 120, 0.25, 0.4, 910);
  const auto plan = compile_plan(topo, w);
  const auto serial = serial_replay(plan, w.out_values);

  AsyncExecutor<float> ax;
  typename AsyncExecutor<float>::Options opts;
  opts.window = 1;
  ax.bind(plan, opts);
  const auto revive = [&] {
    FaultPlan faults(m);
    faults.crash_at_round(3, 0);
    faults.revive_at_round(3, 2);
    expect_check_message([&] { (void)ax.submit(w.out_values, &faults); },
                         "async streams do not support mid-stream revival");
  };
  revive();  // a lane is free
  const std::uint32_t first = ax.submit(w.out_values);
  revive();  // the only lane is taken
  const std::uint32_t second = ax.submit(w.out_values);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 1u);
  ax.drain();
  EXPECT_EQ(ax.take_result(first), serial);
  EXPECT_EQ(ax.take_result(second), serial);
}

TEST(AsyncExecutor, RecorderSeesAdmitAndCompletePerStream) {
  const Topology topo({4});
  const rank_t m = topo.num_machines();
  auto w = random_workload<float>(m, 80, 0.3, 0.5, 905);
  const auto plan = compile_plan(topo, w);
  obs::FlightRecorder recorder(m);

  AsyncExecutor<float> ax;
  typename AsyncExecutor<float>::Options opts;
  opts.window = 2;
  opts.recorder = &recorder;
  ax.bind(plan, opts);
  constexpr int kStreams = 5;
  for (int i = 0; i < kStreams; ++i) (void)ax.submit(w.out_values);
  ax.drain();

  int admits = 0;
  int completes = 0;
  for (const obs::FlightEvent& e : recorder.merged_events()) {
    if (e.kind == obs::FlightEventKind::kStreamAdmit) ++admits;
    if (e.kind == obs::FlightEventKind::kStreamComplete) ++completes;
  }
  EXPECT_EQ(admits, kStreams);
  EXPECT_EQ(completes, kStreams);
  EXPECT_STREQ(obs::flight_event_kind_name(
                   obs::FlightEventKind::kStreamComplete),
               "stream-complete");
}

TEST(AsyncExecutor, ResetReplaysNextBatchIdentically) {
  const Topology topo({3, 2});
  const rank_t m = topo.num_machines();
  auto w = random_workload<float>(m, 120, 0.25, 0.4, 906);
  const auto plan = compile_plan(topo, w);
  const auto serial = serial_replay(plan, w.out_values);

  AsyncExecutor<float> ax;
  typename AsyncExecutor<float>::Options opts;
  opts.window = 2;
  ax.bind(plan, opts);
  for (int batch = 0; batch < 3; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    std::vector<std::uint32_t> tags;
    for (int i = 0; i < 4; ++i) tags.push_back(ax.submit(w.out_values));
    ax.drain();
    for (const std::uint32_t tag : tags) {
      EXPECT_EQ(ax.take_result(tag), serial);
    }
    ax.reset();
  }
}

TEST(AsyncExecutor, PreResetTagThrowsNamingTheLiveRange) {
  // reset() (and so bind(), as after a heal) retires every earlier tag;
  // each per-tag accessor must refuse a stale one instead of reading a
  // reused or missing slot.
  const Topology topo({4});
  const rank_t m = topo.num_machines();
  auto w = random_workload<float>(m, 80, 0.3, 0.5, 908);
  const auto plan = compile_plan(topo, w);

  AsyncExecutor<float> ax;
  typename AsyncExecutor<float>::Options opts;
  opts.window = 2;
  ax.bind(plan, opts);
  const std::uint32_t old_tag = ax.submit(w.out_values);
  ax.drain();
  (void)ax.take_result(old_tag);
  ax.reset();
  const std::uint32_t tag = ax.submit(w.out_values);
  ax.drain();
  EXPECT_NO_THROW((void)ax.stream_stats(tag));

  const std::string needle = "stream tag " + std::to_string(old_tag) +
                             " is not live (live tags: [" +
                             std::to_string(tag) + ", " +
                             std::to_string(tag + 1) + "))";
  expect_check_message([&] { (void)ax.completion_seconds(old_tag); }, needle);
  expect_check_message([&] { (void)ax.stream_stats(old_tag); }, needle);
  expect_check_message([&] { (void)ax.fault_stats(old_tag); }, needle);
  expect_check_message([&] { (void)ax.stream_epoch(old_tag); }, needle);
  expect_check_message([&] { (void)ax.degraded_report(old_tag); }, needle);
  expect_check_message([&] { (void)ax.take_result(old_tag); }, needle);
  expect_check_message([&] { (void)ax.stream_stats(tag + 1); },
                       "stream tag " + std::to_string(tag + 1));
}

TEST(AsyncExecutor, SubmitMisuseThrowsTheSerialExecutorsMessages) {
  const Topology topo({2, 2});
  const rank_t m = topo.num_machines();
  auto w = random_workload<float>(m, 90, 0.3, 0.5, 909);
  AsyncExecutor<float> ax;
  ax.bind(compile_plan(topo, w), {});

  auto values = w.out_values;
  values.pop_back();
  expect_check_message([&] { (void)ax.submit(values); },
                       "out_values has 3 entries, expected 4");
  values = w.out_values;
  values[1].push_back(1.0f);
  expect_check_message([&] { (void)ax.submit(values); },
                       "contribution length does not match plan out set");

  // Rank 2 died during compilation, so the plan does not cover it: it may
  // only be submitted dead (by the stream's FaultPlan), as in
  // reduce_strided.
  FailureModel failures(m);
  failures.kill(2);
  ParallelBspEngine<float> engine(m, 1, &failures);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> compiler(&engine,
                                                                    topo);
  ax.bind(compiler.compile(w.in_sets, w.out_sets), {});
  expect_check_message([&] { (void)ax.submit(w.out_values); },
                       "alive rank not covered by the bound plan");
  FaultPlan dead(m);
  dead.failures().kill(2);
  const std::uint32_t tag = ax.submit(w.out_values, &dead);
  ax.drain();
  EXPECT_TRUE(ax.take_result(tag)[2].empty());
}

}  // namespace
}  // namespace kylix
