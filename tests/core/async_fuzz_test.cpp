// Async fuzz: k in-flight async streams must equal k serialized
// ReduceExecutor replays — float and double, strided and chunked-streaming,
// clean and under per-stream seeded FaultPlans (identical results,
// FaultStats, and DegradedReports). Each serialized oracle stream gets a
// fresh engine + FaultChannel + identically-configured FaultPlan, the
// isolation the executor gives every stream (a shared serial channel would
// leak delayed letters across reduces). The executor's values come from
// that same serial replay, so the check that is not true by construction
// is the last one: the timeline pricer's NIC occupancy for a stream alone
// against the serial replay's Trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "cluster/netmodel.hpp"
#include "cluster/trace.hpp"
#include "comm/fault_channel.hpp"
#include "comm/parallel.hpp"
#include "core/allreduce.hpp"
#include "core/async_executor.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

struct FaultConfig {
  std::uint64_t seed = 0;
  double drop = 0;
  double duplicate = 0;
  double delay = 0;
  rank_t crash_rank = 0;
  std::uint64_t crash_round = 0;
  bool crash = false;

  [[nodiscard]] FaultPlan build(rank_t m) const {
    FaultPlan plan(m, seed);
    FaultPlan::TransientRates rates;
    rates.drop = drop;
    rates.duplicate = duplicate;
    rates.delay = delay;
    plan.set_transient_rates(rates);
    if (crash) plan.crash_at_round(crash_rank, crash_round);
    return plan;
  }
};

template <typename V>
void run_case(std::uint64_t seed) {
  Rng rng(mix64(seed * 977 + 13));
  // 1-2 layers of degree 2-4: 2..16 machines.
  std::vector<std::uint32_t> degrees;
  const std::uint64_t layers = 1 + rng.below(2);
  for (std::uint64_t i = 0; i < layers; ++i) {
    degrees.push_back(static_cast<std::uint32_t>(2 + rng.below(3)));
  }
  const Topology topo(degrees);
  const rank_t m = topo.num_machines();
  const auto w = testing::random_workload<V>(
      m, 40 + rng.below(200), 0.1 + rng.uniform() * 0.4,
      0.1 + rng.uniform() * 0.5, rng());

  ParallelBspEngine<V> compile_engine(m, 1);
  SparseAllreduce<V, OpSum, ParallelBspEngine<V>> compiler(
      &compile_engine, topo);
  const auto plan = compiler.compile(w.in_sets, w.out_sets);
  ASSERT_NE(plan, nullptr);

  const std::uint32_t stride = 1 + static_cast<std::uint32_t>(rng.below(3));
  const bool streaming = rng.below(2) == 0;
  const std::uint64_t chunk_override =
      streaming ? 64 + rng.below(4) * 64 : 0;
  const int streams = 2 + static_cast<int>(rng.below(4));
  const std::uint32_t window =
      1 + static_cast<std::uint32_t>(rng.below(streams));
  const bool faulted = rng.below(2) == 0;

  // Per-stream inputs: stride payloads interleaved key-major, values
  // varying per stream.
  std::vector<std::vector<std::vector<V>>> inputs;
  for (int i = 0; i < streams; ++i) {
    std::vector<std::vector<V>> values(m);
    for (rank_t r = 0; r < m; ++r) {
      for (std::size_t p = 0; p < w.out_values[r].size(); ++p) {
        for (std::uint32_t c = 0; c < stride; ++c) {
          values[r].push_back(static_cast<V>(
              w.out_values[r][p] + static_cast<V>(i + c * 7)));
        }
      }
    }
    inputs.push_back(std::move(values));
  }
  // Per-stream fault schedules (distinct seeds so streams differ).
  std::vector<FaultConfig> configs(streams);
  if (faulted) {
    for (int i = 0; i < streams; ++i) {
      FaultConfig& cfg = configs[i];
      cfg.seed = rng();
      cfg.drop = rng.uniform() * 0.15;
      cfg.duplicate = rng.uniform() * 0.1;
      cfg.delay = rng.uniform() * 0.1;
      cfg.crash = rng.below(2) == 0;
      cfg.crash_rank = static_cast<rank_t>(rng.below(m));
      cfg.crash_round = rng.below(2 * layers);
    }
  }

  AsyncExecutor<V> ax;
  typename AsyncExecutor<V>::Options opts;
  opts.window = window;
  opts.streaming = streaming;
  opts.chunk_bytes_override = chunk_override;
  opts.stride = stride;
  ax.bind(plan, opts);
  std::vector<FaultPlan> fault_plans;
  fault_plans.reserve(streams);
  std::vector<std::uint32_t> tags;
  for (int i = 0; i < streams; ++i) {
    if (faulted) {
      fault_plans.push_back(configs[i].build(m));
      tags.push_back(ax.submit(inputs[i], &fault_plans.back()));
    } else {
      tags.push_back(ax.submit(inputs[i]));
    }
  }
  ax.drain();

  // Each stream again, alone in a window-1 executor on the modeled clock.
  const NetworkModel net;
  typename AsyncExecutor<V>::Options alone_opts = opts;
  alone_opts.window = 1;
  alone_opts.network = &net;

  for (int i = 0; i < streams; ++i) {
    SCOPED_TRACE("stream " + std::to_string(i));
    Trace trace;
    ParallelBspEngine<V> engine(m, 1, nullptr, &trace);
    std::optional<FaultPlan> oracle_faults;
    std::optional<FaultChannel<V>> channel;
    if (faulted) {
      oracle_faults.emplace(configs[i].build(m));
      channel.emplace(&*oracle_faults);
      engine.set_fault_channel(&*channel);
    }
    SparseAllreduce<V, OpSum, ParallelBspEngine<V>> ar(&engine, topo);
    ar.configure(plan);
    ar.set_streaming(streaming);
    ar.set_chunk_bytes(chunk_override);
    const auto serial = ar.reduce_strided(inputs[i], stride);

    EXPECT_EQ(ax.take_result(tags[i]), serial) << "bit-identity violated";
    const DegradedReport async_report = ax.degraded_report(tags[i]);
    const DegradedReport serial_report = ar.degraded_report();
    EXPECT_EQ(async_report.degraded, serial_report.degraded);
    EXPECT_EQ(async_report.summary(), serial_report.summary());
    if (faulted) {
      const FaultStats& got = ax.fault_stats(tags[i]);
      const FaultStats& want = oracle_faults->stats();
      EXPECT_EQ(got.crashes, want.crashes);
      EXPECT_EQ(got.revivals, want.revivals);
      EXPECT_EQ(got.dropped, want.dropped);
      EXPECT_EQ(got.duplicated, want.duplicated);
      EXPECT_EQ(got.delayed, want.delayed);
    }

    // Results and FaultStats above come from the serial replay on both
    // sides. The NIC occupancy does not: alone on the timeline, the
    // stream's busiest sender must carry exactly the letters the serial
    // replay traced, each for stack overhead plus bytes over bandwidth
    // (a duplicate is traced twice; loopback never touches the NIC).
    AsyncExecutor<V> alone;
    alone.bind(plan, alone_opts);
    std::optional<FaultPlan> alone_faults;
    if (faulted) alone_faults.emplace(configs[i].build(m));
    (void)alone.submit(inputs[i], faulted ? &*alone_faults : nullptr);
    alone.drain();
    std::vector<double> busy(m, 0.0);
    for (const MsgEvent& e : trace.events()) {
      if (e.phase == Phase::kConfig || e.src == e.dst) continue;
      busy[e.src] += net.stack_overhead_s +
                     static_cast<double>(e.bytes) / net.bandwidth_bytes_per_s;
    }
    const double traced = *std::max_element(busy.begin(), busy.end());
    EXPECT_GT(traced, 0.0);
    EXPECT_NEAR(alone.max_tx_busy_seconds(), traced, 1e-9 * traced);
  }
}

class AsyncFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AsyncFuzzTest, FloatStreamsMatchSerializedReplays) {
  run_case<float>(GetParam());
}

TEST_P(AsyncFuzzTest, DoubleStreamsMatchSerializedReplays) {
  run_case<double>(GetParam() + 5000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace kylix
