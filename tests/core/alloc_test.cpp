// Asserts the zero-allocation claims about the steady-state hot paths.
//
// This binary installs a counting global operator new, so AllocGauge scopes
// measure real heap traffic. The strict zero assertions hold in NDEBUG
// builds (the default RelWithDebInfo); debug builds run the same code but
// the engines' expected-sender sanity checks intentionally allocate, so
// those assertions relax to "does not grow between iterations".
#include "common/alloc_gauge.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "comm/parallel.hpp"
#include "comm/replicated.hpp"
#include "core/allreduce.hpp"
#include "core/async_executor.hpp"
#include "core/plan_cache.hpp"
#include "core/replay_node.hpp"
#include "obs/engine_obs.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "obs/watchdog.hpp"
#include "powerlaw/zipf.hpp"
#include "sparse/kernels/radix_sort.hpp"
#include "sparse/merge.hpp"
#include "test_util.hpp"

// --- counting global allocator ---------------------------------------------

namespace {
void* counted_alloc(std::size_t size) {
  kylix::g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  kylix::g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  kylix::g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace kylix {
namespace {

using kylix::testing::random_workload;

/// `stride` payloads per contributed key, interleaved key-major: payload c
/// of key p is the stride-1 value plus c.
std::vector<std::vector<float>> interleave(
    const std::vector<std::vector<float>>& values, std::uint32_t stride) {
  std::vector<std::vector<float>> interleaved(values.size());
  for (std::size_t r = 0; r < values.size(); ++r) {
    interleaved[r].resize(values[r].size() * stride);
    for (std::size_t p = 0; p < values[r].size(); ++p) {
      for (std::uint32_t c = 0; c < stride; ++c) {
        interleaved[r][p * stride + c] = values[r][p] + static_cast<float>(c);
      }
    }
  }
  return interleaved;
}

TEST(AllocGauge, CountsThisBinarysAllocations) {
  AllocGauge gauge;
  auto* p = new int(7);
  EXPECT_GE(gauge.count(), 1u);
  delete p;
}

TEST(AllocHotPath, WarmTreeMergeIsAllocationFree) {
  Rng rng(11);
  std::vector<std::vector<key_t>> inputs;
  for (int i = 0; i < 13; ++i) {
    std::vector<key_t> keys;
    for (int j = 0; j < 60; ++j) keys.push_back(rng.below(500));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    inputs.push_back(std::move(keys));
  }
  std::vector<std::span<const key_t>> spans(inputs.begin(), inputs.end());

  MergeScratch scratch;
  UnionResult out;
  // Warm until the buffer rotation (runs ping-pong between arenas and the
  // output, so capacities circulate in cycles) reaches its fixed point.
  for (int i = 0; i < 10; ++i) tree_merge_into(spans, out, scratch);
  const UnionResult expected = tree_merge(spans);

  AllocGauge gauge;
  tree_merge_into(spans, out, scratch);
  EXPECT_EQ(gauge.count(), 0u);
  EXPECT_EQ(out.keys, expected.keys);
  EXPECT_EQ(out.maps, expected.maps);
}

TEST(AllocHotPath, WarmPairwiseMergeIsAllocationFree) {
  // Balanced sizes with every kind of step — a-only, b-only and shared
  // keys — run the presized branch-free loop, not the gallop path.
  Rng rng(13);
  std::vector<key_t> a;
  std::vector<key_t> b;
  for (key_t k = 0; k < 30000; ++k) {
    const auto side = rng.below(3);
    if (side != 1) a.push_back(k);
    if (side != 0) b.push_back(k);
  }
  std::vector<key_t> keys;
  PosMap map_a, map_b;
  merge_union_into(a, b, keys, map_a, map_b);  // warm

  AllocGauge gauge;
  merge_union_into(a, b, keys, map_a, map_b);
  EXPECT_EQ(gauge.count(), 0u);
  ASSERT_EQ(keys.size(), 30000u);
  for (std::size_t p = 0; p < keys.size(); ++p) ASSERT_EQ(keys[p], p);
  for (std::size_t p = 0; p < a.size(); ++p) ASSERT_EQ(map_a[p], a[p]);
  for (std::size_t p = 0; p < b.size(); ++p) ASSERT_EQ(map_b[p], b[p]);
}

TEST(AllocHotPath, WarmRepeatFilteredSortIsAllocationFree) {
  // A minibatch-shaped Zipf batch: the repeat filter's table lives in the
  // warm scratch, so the whole sort allocates nothing.
  const ZipfSampler zipf(std::uint64_t{1} << 20, 1.1);
  Rng rng(14);
  std::vector<key_t> batch(std::size_t{1} << 15);
  for (auto& k : batch) k = hash_index(zipf(rng) - 1);
  std::vector<key_t> expected = batch;
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());

  std::vector<key_t> keys = batch;
  std::vector<key_t> scratch;
  kernels::radix_sort_dedup(keys, scratch);  // warm
  keys.assign(batch.begin(), batch.end());

  AllocGauge gauge;
  kernels::radix_sort_dedup(keys, scratch);
  EXPECT_EQ(gauge.count(), 0u);
  EXPECT_EQ(keys, expected);
}

// Drives the replay stages around the engine rounds exactly as
// ReduceExecutor does — letters packed before a round, the inbox parked in
// it and combined after it — but with the warm-up / measurement boundary
// inside one reduction: after warm-up, the down rounds and up rounds (the
// per-iteration hot path, their stages and the parked-buffer return
// included) must not allocate at all. load_input, the bottom stage and
// the result hand-off are the accepted API boundary: load_input moves the
// caller's vector in without copying it, the layer-1 hand-over passes its
// buffer on to the result slot, the bottom stage may grow that buffer,
// and the result leaves the system with the caller each iteration.
TEST(AllocHotPath, SteadyStateReduceRoundsAreAllocationFree) {
  using Ops = ReplayOps<float, OpSum>;
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 2000, 0.08, 0.15, 42);

  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> compiler(
      &engine, topo);
  const auto plan = compiler.compile(w.in_sets, w.out_sets);
  const ReplayContext ctx{plan.get(), /*stride=*/1, /*chunk_positions=*/0};
  std::vector<ReplayScratch<float>> state(m);
  for (ReplayScratch<float>& s : state) s.letters.resize(topo.num_layers());
  std::vector<Slice> slices;
  slices.reserve(64);
  // One pooled stage, run inline: plan every rank's slices, then run them.
  const auto stage = [&](auto&& plan_rank, auto&& run) {
    slices.clear();
    for (rank_t r = 0; r < m; ++r) plan_rank(r);
    for (const Slice& t : slices) run(t);
  };
  const auto pack = [&](Phase phase, std::uint16_t layer) {
    stage(
        [&](rank_t r) {
          Ops::plan_letters(ctx, state[r], r, phase, layer, slices);
        },
        [&](const Slice& t) {
          Ops::pack(ctx, state[t.rank], phase, layer, t);
        });
  };
  const auto run_round = [&](Phase phase, std::uint16_t layer) {
    engine.round(
        phase, layer,
        [&](rank_t r) -> std::vector<Letter<float>>& {
          return Ops::hand_over(ctx, state[r], r, phase, layer);
        },
        [&](rank_t r) -> const std::vector<rank_t>& {
          return plan->rank_plan(r).layers[layer - 1].group;
        },
        [&](rank_t r, std::vector<Letter<float>>&& inbox) {
          Ops::park(ctx, state[r], r, phase, layer, std::move(inbox));
        });
    stage(
        [&](rank_t r) {
          Ops::plan_combine(ctx, state[r], r, phase, layer, slices);
        },
        [&](const Slice& t) {
          Ops::combine(ctx, state[t.rank], phase, layer, t);
        });
    // Parked buffers go back to their sender's pool after the combine.
    Ops::recycle(state);
  };

  const auto reduce_once = [&](std::vector<std::vector<float>> values,
                               std::uint64_t* down_allocs,
                               std::uint64_t* up_allocs) {
    for (rank_t r = 0; r < m; ++r) Ops::load_input(state[r], values[r]);
    {
      AllocGauge gauge;
      pack(Phase::kReduceDown, 1);
      for (std::uint16_t layer = 1; layer <= topo.num_layers(); ++layer) {
        run_round(Phase::kReduceDown, layer);
      }
      if (down_allocs != nullptr) *down_allocs = gauge.count();
    }
    stage([&](rank_t r) { Ops::plan_bottom(ctx, state[r], r, slices); },
          [&](const Slice& t) { Ops::gather_bottom(ctx, state[t.rank], t); });
    for (rank_t r = 0; r < m; ++r) Ops::finish_bottom(ctx, state[r], r);
    {
      AllocGauge gauge;
      for (std::uint16_t layer = topo.num_layers(); layer >= 1; --layer) {
        pack(Phase::kReduceUp, layer);
        run_round(Phase::kReduceUp, layer);
      }
      if (up_allocs != nullptr) *up_allocs = gauge.count();
    }
    std::vector<std::vector<float>> results;
    results.reserve(m);
    for (ReplayScratch<float>& s : state) results.push_back(std::move(s.vin));
    return results;
  };

  // Warm-up: lets every pool, letter shell, and engine inbox reach its
  // steady-state capacity. Buffers rotate through pool roles in a cycle, so
  // give the rotation several full periods to ratchet every capacity up.
  for (int iter = 0; iter < 10; ++iter) {
    (void)reduce_once(w.out_values, nullptr, nullptr);
  }

  std::uint64_t down_allocs = 0;
  std::uint64_t up_allocs = 0;
  const auto results = reduce_once(w.out_values, &down_allocs, &up_allocs);
  testing::expect_matches_oracle<float>(w, results);
#ifdef NDEBUG
  EXPECT_EQ(down_allocs, 0u) << "scatter-reduce rounds hit the allocator";
  EXPECT_EQ(up_allocs, 0u) << "allgather rounds hit the allocator";
#else
  // Debug builds allocate in the engines' sender sanity checks; just make
  // sure repetition doesn't grow.
  std::uint64_t down2 = 0;
  std::uint64_t up2 = 0;
  (void)reduce_once(w.out_values, &down2, &up2);
  EXPECT_EQ(down_allocs, down2);
  EXPECT_EQ(up_allocs, up2);
#endif
}

TEST(AllocHotPath, FullReduceStaysWithinApiBoundaryBudget) {
  const Topology topo({2, 2, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 3000, 0.06, 0.12, 99);

  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  for (int iter = 0; iter < 8; ++iter) {
    (void)allreduce.reduce(w.out_values);  // warm
  }

  const auto measure = [&] {
    auto values = w.out_values;  // copied outside the gauge
    AllocGauge gauge;
    const auto results = allreduce.reduce(std::move(values));
    const std::uint64_t count = gauge.count();
    EXPECT_EQ(results.size(), m);
    return count;
  };
  const std::uint64_t first = measure();
  const std::uint64_t second = measure();
#ifdef NDEBUG
  // Accepted allocations: the per-rank result buffer that leaves with the
  // caller (grown in the bottom stage) and the outer results vector.
  // Everything else — letters, unions, merges, inboxes — must recycle.
  EXPECT_LE(first, static_cast<std::uint64_t>(m) + 1);
#endif
  EXPECT_EQ(first, second) << "steady-state reduce() is not steady";
}

// The observability hooks must be pay-for-what-you-use: after detaching an
// observer, the steady-state reduce path is exactly as allocation-free as
// it is on an engine that never had one (the null checks cost nothing).
TEST(AllocHotPath, ObserverDetachRestoresSteadyStateBudget) {
  const Topology topo({2, 2, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 3000, 0.06, 0.12, 99);

  ParallelBspEngine<float> engine(m, 1);
  obs::SpanTracer tracer;
  obs::TelemetryObserver observer(&tracer, m, obs::TelemetryObserver::Options{});
  engine.set_observer(&observer);

  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  for (int iter = 0; iter < 8; ++iter) {
    (void)allreduce.reduce(w.out_values);  // warm with telemetry attached
  }
  EXPECT_GT(observer.total_messages(), 0u);

  engine.set_observer(nullptr);
  (void)allreduce.reduce(w.out_values);  // settle

  const auto measure = [&] {
    auto values = w.out_values;
    AllocGauge gauge;
    const auto results = allreduce.reduce(std::move(values));
    const std::uint64_t count = gauge.count();
    EXPECT_EQ(results.size(), m);
    return count;
  };
  const std::uint64_t first = measure();
  const std::uint64_t second = measure();
#ifdef NDEBUG
  // Same budget as FullReduceStaysWithinApiBoundaryBudget: only the result
  // buffers that leave with the caller.
  EXPECT_LE(first, static_cast<std::uint64_t>(m) + 1);
#endif
  EXPECT_EQ(first, second);
  const std::size_t events_after_detach = tracer.num_events();
  (void)measure();
  EXPECT_EQ(tracer.num_events(), events_after_detach)
      << "detached observer still received events";
}

// The other direction: with the FULL observability v2 stack attached —
// metrics, flight recorder, and anomaly watchdog — the steady-state reduce
// obeys the same API-boundary budget. Flight-recorder slots are fixed at
// construction, the watchdog's median scratch is pre-sized, and histogram
// observes are bucket increments, so instrumentation adds zero allocations
// per iteration.
TEST(AllocHotPath, FullyInstrumentedSteadyStateReduceStaysWithinBudget) {
  const Topology topo({2, 2, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 3000, 0.06, 0.12, 99);

  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(m, 128, 512);
  obs::AnomalyWatchdog::Options wopt;
  wopt.metrics = &metrics;
  wopt.recorder = &recorder;
  obs::AnomalyWatchdog watchdog(m, wopt);

  obs::TelemetryObserver::Options topt;
  topt.metrics = &metrics;
  topt.recorder = &recorder;
  topt.watchdog = &watchdog;
  obs::TelemetryObserver observer(/*tracer=*/nullptr, m, topt);

  ParallelBspEngine<float> engine(m, 1);
  engine.set_observer(&observer);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  for (int iter = 0; iter < 8; ++iter) {
    (void)allreduce.reduce(w.out_values);  // warm
  }
  EXPECT_GT(observer.total_messages(), 0u);
  EXPECT_GT(recorder.recorded(), 0u);
  EXPECT_GT(watchdog.rounds_seen(), 0u);

  const auto measure = [&] {
    auto values = w.out_values;  // copied outside the gauge
    AllocGauge gauge;
    const auto results = allreduce.reduce(std::move(values));
    const std::uint64_t count = gauge.count();
    EXPECT_EQ(results.size(), m);
    return count;
  };
  const std::uint64_t first = measure();
  const std::uint64_t second = measure();
#ifdef NDEBUG
  // Identical budget to the uninstrumented engine: only the result buffers
  // that leave with the caller.
  EXPECT_LE(first, static_cast<std::uint64_t>(m) + 1);
#endif
  EXPECT_EQ(first, second) << "instrumented steady state is not steady";
}

// KYLIX_METRICS=off must make the whole observability stack a no-op at
// construction: instruments stop counting and the flight recorder stops
// writing, while the reduce itself is unaffected.
TEST(AllocHotPath, MetricsEnvOffSilencesTheWholeStack) {
  ::setenv("KYLIX_METRICS", "off", 1);
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(8);
  ::unsetenv("KYLIX_METRICS");
  EXPECT_FALSE(metrics.enabled());
  EXPECT_FALSE(recorder.enabled());

  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 1000, 0.1, 0.2, 31);

  obs::TelemetryObserver::Options topt;
  topt.metrics = &metrics;
  topt.recorder = &recorder;
  obs::TelemetryObserver observer(/*tracer=*/nullptr, m, topt);

  ParallelBspEngine<float> engine(m, 1);
  engine.set_observer(&observer);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto results = allreduce.reduce(w.out_values);
  testing::expect_matches_oracle<float>(w, results);

  // The observer's own totals still count (they are plain members), but
  // nothing reached the disabled sinks.
  EXPECT_GT(observer.total_messages(), 0u);
  EXPECT_EQ(metrics.counter("engine.messages").value(), 0u);
  EXPECT_EQ(metrics.histogram("engine.round_seconds",
                              obs::exponential_bounds(1e-6, 10, 8))
                .count(),
            0u);
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.merged_events().empty());
}

// The replication layer's alive-replica lookups used to build a fresh
// std::vector per call; they are now served from a cache revalidated
// against FailureModel::version(), so queries — and cache rebuilds after a
// kill, once warm — touch the allocator not at all.
TEST(AllocHotPath, ReplicatedAliveMaskQueriesAreAllocationFree) {
  FailureModel failures(16);
  failures.kill(3);   // replica 0 of logical 3
  failures.kill(12);  // replica 1 of logical 4
  ReplicatedBsp<float> engine(8, 2, &failures);
  (void)engine.alive_replicas(0);  // build the cache
  std::size_t total = 0;
  {
    AllocGauge gauge;
    for (int iter = 0; iter < 100; ++iter) {
      for (rank_t j = 0; j < 8; ++j) {
        total += engine.alive_replicas(j).size();
        total += engine.is_dead(j) ? 1 : 0;
      }
      total += engine.has_failed() ? 1 : 0;
    }
    EXPECT_EQ(gauge.count(), 0u) << "alive-mask queries hit the allocator";
  }
  EXPECT_EQ(total, 100u * 14u);  // 14 alive replicas over 8 groups

  // A mid-run kill invalidates the cache; the rebuild reuses the warmed
  // per-group vectors (clear() keeps capacity), so it is allocation-free
  // too once every group has seen its full replica count.
  AllocGauge gauge;
  failures.kill(5);
  EXPECT_EQ(engine.alive_replicas(5).size(), 1u);
  EXPECT_FALSE(engine.has_failed());
  failures.revive(5);
  EXPECT_EQ(engine.alive_replicas(5).size(), 2u);
  EXPECT_EQ(gauge.count(), 0u) << "cache rebuild after kill allocated";
}

// Steady-state replicated reduce: same API-boundary budget as the flat
// engine — only the result buffers that leave with the caller — including
// with dead replicas forcing the racing paths.
TEST(AllocHotPath, ReplicatedSteadyStateReduceStaysWithinBudget) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 2000, 0.08, 0.15, 57);

  FailureModel failures(m * 2);
  failures.kill(2);      // replica 0 of logical 2
  failures.kill(m + 5);  // replica 1 of logical 5
  ReplicatedBsp<float> engine(m, 2, &failures);
  SparseAllreduce<float, OpSum, ReplicatedBsp<float>> allreduce(&engine,
                                                                topo);
  allreduce.configure(w.in_sets, w.out_sets);
  for (int iter = 0; iter < 8; ++iter) {
    (void)allreduce.reduce(w.out_values);  // warm
  }

  const auto measure = [&] {
    auto values = w.out_values;  // copied outside the gauge
    AllocGauge gauge;
    const auto results = allreduce.reduce(std::move(values));
    const std::uint64_t count = gauge.count();
    EXPECT_EQ(results.size(), m);
    return count;
  };
  const std::uint64_t first = measure();
  const std::uint64_t second = measure();
#ifdef NDEBUG
  EXPECT_LE(first, static_cast<std::uint64_t>(m) + 1);
#endif
  EXPECT_EQ(first, second) << "steady-state replicated reduce not steady";
}

// Plan replay through an *adopted* plan (no nodes exist at all) obeys the
// same API-boundary budget as the compiling allreduce: only the result
// buffers that leave with the caller.
TEST(AllocHotPath, AdoptedPlanReplayStaysWithinBudget) {
  const Topology topo({2, 2, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 3000, 0.06, 0.12, 17);

  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> compiler(
      &engine, topo);
  const auto plan = compiler.compile(w.in_sets, w.out_sets);

  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> replayer(
      &engine, topo);
  replayer.configure(plan);
  for (int iter = 0; iter < 8; ++iter) {
    (void)replayer.reduce(w.out_values);  // warm
  }

  const auto measure = [&] {
    auto values = w.out_values;  // copied outside the gauge
    AllocGauge gauge;
    const auto results = replayer.reduce(std::move(values));
    const std::uint64_t count = gauge.count();
    EXPECT_EQ(results.size(), m);
    return count;
  };
  const std::uint64_t first = measure();
  const std::uint64_t second = measure();
#ifdef NDEBUG
  EXPECT_LE(first, static_cast<std::uint64_t>(m) + 1);
#endif
  EXPECT_EQ(first, second) << "adopted-plan replay is not steady";
}

// Multi-payload replay moves stride x the values through the same frozen
// schedule; warm iterations must stay within the identical budget — the
// payload count changes buffer sizes, never buffer counts.
TEST(AllocHotPath, StridedPlanReplayStaysWithinBudget) {
  const Topology topo({2, 2, 2});
  const rank_t m = topo.num_machines();
  const std::uint32_t stride = 3;
  const auto w = random_workload<float>(m, 3000, 0.06, 0.12, 19);
  const auto interleaved = interleave(w.out_values, stride);

  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  for (int iter = 0; iter < 8; ++iter) {
    (void)allreduce.reduce_strided(interleaved, stride);  // warm
  }

  const auto measure = [&] {
    auto values = interleaved;  // copied outside the gauge
    AllocGauge gauge;
    const auto results = allreduce.reduce_strided(std::move(values), stride);
    const std::uint64_t count = gauge.count();
    EXPECT_EQ(results.size(), m);
    return count;
  };
  const std::uint64_t first = measure();
  const std::uint64_t second = measure();
#ifdef NDEBUG
  EXPECT_LE(first, static_cast<std::uint64_t>(m) + 1);
#endif
  EXPECT_EQ(first, second) << "strided replay is not steady";
}

// Streaming splits every letter into chunk-sized frames, but the chunk
// shells and the block-watermark scratch are pooled like everything else:
// warm streamed replay obeys the identical API-boundary budget — only the
// result buffers that leave with the caller.
TEST(AllocHotPath, StreamedStridedReplayStaysWithinBudget) {
  const Topology topo({2, 2, 2});
  const rank_t m = topo.num_machines();
  const std::uint32_t stride = 3;
  const auto w = random_workload<float>(m, 3000, 0.06, 0.12, 29);
  const auto interleaved = interleave(w.out_values, stride);

  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.set_streaming(true);
  allreduce.set_chunk_bytes(512);  // small chunks: every letter splits
  allreduce.configure(w.in_sets, w.out_sets);
  for (int iter = 0; iter < 8; ++iter) {
    (void)allreduce.reduce_strided(interleaved, stride);  // warm
  }
  EXPECT_GT(allreduce.stream_stats().max_chunks_per_letter, 1u)
      << "chunk size too large to exercise streaming";

  const auto measure = [&] {
    auto values = interleaved;  // copied outside the gauge
    AllocGauge gauge;
    const auto results = allreduce.reduce_strided(std::move(values), stride);
    const std::uint64_t count = gauge.count();
    EXPECT_EQ(results.size(), m);
    return count;
  };
  const std::uint64_t first = measure();
  const std::uint64_t second = measure();
#ifdef NDEBUG
  EXPECT_LE(first, static_cast<std::uint64_t>(m) + 1);
#endif
  EXPECT_EQ(first, second) << "streamed strided replay is not steady";
}

// Hierarchical replays obey the same budget. Each member's contribution is
// read in place by its leader's fold and its buffer becomes the member's
// result buffer, so a warm reduce allocates at most one result-buffer
// growth per rank plus the outer results vector, whatever the host width,
// stride or chunking.
TEST(AllocHotPath, HierarchicalReplayStaysWithinBudget) {
  struct Shape {
    std::vector<std::uint32_t> degrees;
    std::uint32_t cores;
    std::uint32_t stride;
  };
  const std::vector<Shape> shapes = {
      {{2, 2}, 4, 3}, {{4}, 4, 8}, {{2}, 8, 1}, {{4, 2}, 2, 1}};
  for (const Shape& shape : shapes) {
    for (const bool streamed : {false, true}) {
      const Topology topo(shape.degrees, shape.cores);
      const rank_t m = topo.num_machines();
      SCOPED_TRACE(topo.to_string() + " stride " +
                   std::to_string(shape.stride) +
                   (streamed ? " streamed" : " letter-at-once"));
      const auto w = random_workload<float>(m, 3000, 0.06, 0.12, 37);
      const auto interleaved = interleave(w.out_values, shape.stride);

      ParallelBspEngine<float> engine(m, 1);
      SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
          &engine, topo);
      allreduce.set_streaming(streamed);
      allreduce.set_chunk_bytes(512);  // streamed: every letter splits
      allreduce.configure(w.in_sets, w.out_sets);
      for (int iter = 0; iter < 8; ++iter) {
        (void)allreduce.reduce_strided(interleaved, shape.stride);  // warm
      }
      if (streamed) {
        EXPECT_GT(allreduce.stream_stats().max_chunks_per_letter, 1u);
      }

      const auto measure = [&] {
        auto values = interleaved;  // copied outside the gauge
        AllocGauge gauge;
        const auto results =
            allreduce.reduce_strided(std::move(values), shape.stride);
        const std::uint64_t count = gauge.count();
        EXPECT_EQ(results.size(), m);
        return count;
      };
      const std::uint64_t first = measure();
      const std::uint64_t second = measure();
      const std::uint64_t third = measure();
#ifdef NDEBUG
      EXPECT_LE(first, static_cast<std::uint64_t>(m) + 1);
#endif
      EXPECT_EQ(first, second) << "hierarchical replay is not steady";
      EXPECT_EQ(second, third) << "hierarchical replay is not steady";
    }
  }
}

// The same budget on a pool: pooled stages size every target on the
// driving thread, so workers only write and a warm hierarchical, streamed,
// strided replay at 3 threads allocates exactly what a serial one does.
TEST(AllocHotPath, PooledHierarchicalStreamedReplayStaysWithinBudget) {
  const Topology topo({2, 2}, 4);
  const rank_t m = topo.num_machines();
  const std::uint32_t stride = 8;
  const auto w = random_workload<float>(m, 3000, 0.06, 0.12, 41);
  const auto interleaved = interleave(w.out_values, stride);

  ParallelBspEngine<float> engine(m, 3);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.set_streaming(true);
  allreduce.set_chunk_bytes(512);  // every letter splits
  allreduce.configure(w.in_sets, w.out_sets);
  for (int iter = 0; iter < 8; ++iter) {
    (void)allreduce.reduce_strided(interleaved, stride);  // warm
  }
  EXPECT_GT(allreduce.stream_stats().max_chunks_per_letter, 1u);

  const auto measure = [&] {
    auto values = interleaved;  // copied outside the gauge
    AllocGauge gauge;
    const auto results = allreduce.reduce_strided(std::move(values), stride);
    const std::uint64_t count = gauge.count();
    EXPECT_EQ(results.size(), m);
    return count;
  };
  const std::uint64_t first = measure();
  const std::uint64_t second = measure();
#ifdef NDEBUG
  EXPECT_LE(first, static_cast<std::uint64_t>(m) + 1);
#endif
  EXPECT_EQ(first, second) << "pooled hierarchical replay is not steady";
}

// Async steady state: k in-flight streams obey the per-stream API-boundary
// budget. Each stream replays through the executor's own ReduceExecutor
// (the pools of the serial cases above), the timeline pricer reuses its
// lanes, heap and NIC timelines, and reset() keeps every warmed buffer — so
// a warm submit/drain/take_result/reset batch allocates only what leaves
// with the caller: per stream, the m result buffers grown in the bottom
// stage or the fan-out plus the outer results vector (re-grown because
// take_result moved it out).
TEST(AllocHotPath, AsyncSteadyStateStreamsStayWithinBudget) {
  const Topology topo({2, 2, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 3000, 0.06, 0.12, 61);

  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> compiler(
      &engine, topo);
  const auto plan = compiler.compile(w.in_sets, w.out_sets);
  ASSERT_NE(plan, nullptr);

  AsyncExecutor<float> ax;
  AsyncExecutor<float>::Options opts;
  opts.window = 2;  // < streams: the pending queue is part of the hot path
  ax.bind(plan, opts);
  const int streams = 5;

  std::vector<std::uint32_t> tags;
  tags.reserve(streams);
  std::vector<std::vector<std::vector<float>>> results;
  results.reserve(streams);

  const auto batch = [&] {
    // Input copies made outside the gauge: submit takes values by value.
    std::vector<std::vector<std::vector<float>>> inputs;
    inputs.reserve(streams);
    for (int i = 0; i < streams; ++i) inputs.push_back(w.out_values);
    tags.clear();
    results.clear();
    AllocGauge gauge;
    for (int i = 0; i < streams; ++i) {
      tags.push_back(ax.submit(std::move(inputs[i])));
    }
    ax.drain();
    for (const std::uint32_t tag : tags) {
      results.push_back(ax.take_result(tag));
    }
    ax.reset();
    return gauge.count();
  };

  // Warm until pools, lanes, the scheduler heap, and the stream table
  // reach their steady-state capacities (buffer rotation, as above).
  for (int iter = 0; iter < 10; ++iter) {
    (void)batch();
  }
  const std::uint64_t first = batch();
  for (int i = 0; i < streams; ++i) {
    testing::expect_matches_oracle<float>(w, results[i]);
  }
  const std::uint64_t second = batch();
#ifdef NDEBUG
  // Per stream: the m result buffers that leave with the caller plus the
  // outer results vector. Everything else — letters, pools, lanes, NIC
  // timelines, heap entries — must recycle across batches.
  EXPECT_LE(first, static_cast<std::uint64_t>(streams) * (m + 1));
#endif
  EXPECT_EQ(first, second) << "async steady state is not steady";
}

// Serving a plan from the cache is pointer traffic only: the LRU refresh is
// a list splice and the lookup a hash probe — no allocator contact. Nor
// does re-adopting the plan an allreduce is already bound to.
TEST(AllocHotPath, PlanCacheHitsAllocateNothing) {
  const Topology topo({2, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 500, 0.2, 0.3, 23);

  ParallelBspEngine<float> engine(m, 1);
  PlanCache cache(4);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  auto compiled = allreduce.compile(w.in_sets, w.out_sets);
  const std::uint64_t fp = compiled->fingerprint();
  cache.insert(std::move(compiled));

  AllocGauge gauge;
  for (int iter = 0; iter < 100; ++iter) {
    const auto plan = cache.find(fp);
    ASSERT_NE(plan, nullptr);
  }
  auto plan = cache.find(fp);
  allreduce.configure(std::move(plan));  // same-plan rebind: a no-op
  EXPECT_EQ(gauge.count(), 0u) << "plan-cache hits hit the allocator";
  EXPECT_EQ(cache.hits(), 101u);
}

TEST(AllocHotPath, RepeatedCombinedConfigReduceStabilizes) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 1500, 0.08, 0.15, 7);

  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);

  const auto step = [&] {
    // Copies made outside the gauge: the API takes sets/values by value.
    auto in_sets = w.in_sets;
    auto out_sets = w.out_sets;
    auto values = w.out_values;
    AllocGauge gauge;
    const auto results = allreduce.reduce_with_config(
        std::move(in_sets), std::move(out_sets), std::move(values));
    const std::uint64_t count = gauge.count();
    EXPECT_EQ(results.size(), m);
    return count;
  };

  const std::uint64_t cold = step();
  // Buffers rotate through pool/letter/union roles in long deterministic
  // cycles, so capacities ratchet down-slope for a while; counts are
  // non-increasing and must reach a fixed point. Warm until two consecutive
  // steps agree (bounded, so a genuine leak/churn still fails).
  std::uint64_t warm_a = step();
  std::uint64_t warm_b = step();
  int extra = 0;
  while (warm_a != warm_b && extra < 40) {
    warm_a = warm_b;
    warm_b = step();
    ++extra;
  }
  // NodeScratch persistence: identical steps settle to an identical (and
  // much smaller) allocation count instead of re-allocating every union.
  EXPECT_EQ(warm_a, warm_b) << "no fixed point after " << extra << " extra";
  EXPECT_LT(warm_a, cold / 2);
}

}  // namespace
}  // namespace kylix
