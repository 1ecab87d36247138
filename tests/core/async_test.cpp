// AsyncExecutor functional suite: resumable-node multiplexing of many
// in-flight plan replays. Covers clean multi-stream bit-identity against
// the serial executor, the pending-admission path (more streams than
// lanes), strided and chunked-streaming replays, modeled-clock latency
// accounting (overlap must beat the serialized schedule), fault-script
// replays against the one-thread engine + FaultChannel oracle,
// flight-recorder stream events, reset()/resubmit reuse, and API misuse:
// stale stream tags and the serial executor's contribution checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
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
