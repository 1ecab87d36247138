// Host wall-clock comparison of the simulation engines (BENCH_engines.json).
//
// Unlike the figure benches, which report the *modeled* cluster time, this
// bench measures real host seconds: how fast the simulator itself turns the
// crank. Three questions:
//   1. engine throughput — ParallelBspEngine at one thread (sequential) vs
//      the same engine across the host pool (same trace, same results,
//      bit-identical);
//   2. steady-state vs cold — the scratch/pool recycling means iteration 2+
//      runs allocation-free, so warm reduces beat the cold first pass;
//   3. merge scratch ablation — allocating tree_merge vs the reusable
//      tree_merge_into on the same 64-way key sets;
//   4. plan reuse — per-iteration configure+reduce (the combined mode)
//      vs a warm cached-plan replay (configure_cached + reduce), plus the
//      strided multi-payload amortization (k interleaved payloads through
//      one plan vs k single replays). Gated by tools/bench_check.sh:
//      cached replay must beat per-iteration configuration;
//   5. async overlap — kInflight concurrent streams through the
//      AsyncExecutor (window=k) vs the same streams strictly serialized
//      (window=1), on the modeled network clock: aggregate reduces/sec and
//      per-stream p50/p99 completion latency. Gated >= 1.3x by
//      tools/bench_check.sh, with per-stream bit-identity required.
//
// Timing loops run without observers (measured engines are bare); a separate
// instrumented pass per preset then routes the run through the telemetry
// subsystem (src/obs): a MetricsRegistry fed by TelemetryObserver plus
// per-layer byte counters from the trace, embedded verbatim in the JSON as
// each preset's "telemetry" object.
//
// The parallel engine's speedup scales with physical cores; the JSON
// records hardware_concurrency, the affinity-visible CPU count, and
// engine_threads so a 1-core CI container's ~1x is interpretable.
// Threads: argv[1] or KYLIX_BENCH_THREADS, default
// hardware concurrency. The hierarchy block's pooled engine alone runs at
// the affinity-visible CPU count, recorded as its "pool_threads". Output:
// argv[2] or BENCH_engines.json.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "bench_common.hpp"

namespace {

using namespace kylix;

struct ReduceStats {
  double configure_s = 0;
  double cold_reduce_s = 0;
  double warm_mean_s = 0;
  double warm_min_s = 0;
  std::vector<std::vector<real_t>> results;
};

constexpr int kWarmups = 2;
constexpr int kTimed = 3;
constexpr std::uint32_t kPayloads = 4;

struct PlanReuseStats {
  double combined_per_iter_s = 0;   ///< reduce_with_config every iteration
  double replay_per_iter_s = 0;     ///< configure_cached (hit) + reduce
  double single_reduce_s = 0;       ///< one stride-1 replay
  double strided_reduce_s = 0;      ///< one k-payload strided replay
  bool strided_identical = false;   ///< strided == k independent replays
};

/// The plan-reuse ablation on a preset's real key sets: time the combined
/// per-iteration path against warm cached replay, then push kPayloads
/// interleaved vectors through the plan and check bit-identity against
/// independent replays.
PlanReuseStats run_plan_reuse(ParallelBspEngine<real_t>& engine,
                              const bench::Dataset& data,
                              const Topology& topology) {
  PlanReuseStats stats;
  PlanCache cache(4);
  SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> cached(
      &engine, topology);
  (void)cached.configure_cached(cache, data.in_sets, data.out_sets);
  for (int i = 0; i < kWarmups; ++i) (void)cached.reduce(data.out_values);
  for (int i = 0; i < kTimed; ++i) {
    bench::WallTimer t;
    (void)cached.configure_cached(cache, data.in_sets, data.out_sets);
    (void)cached.reduce(data.out_values);
    stats.replay_per_iter_s += t.seconds() / kTimed;
    bench::WallTimer t2;
    SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> fresh(
        &engine, topology);
    (void)fresh.reduce_with_config(data.in_sets, data.out_sets,
                                   data.out_values);
    stats.combined_per_iter_s += t2.seconds() / kTimed;
  }

  // Multi-payload amortization: payload j shifts every value by j, so the
  // independent replays double as the bit-identity oracle.
  std::vector<std::vector<real_t>> strided(data.out_values.size());
  std::vector<std::vector<std::vector<real_t>>> independent(kPayloads);
  for (std::uint32_t j = 0; j < kPayloads; ++j) {
    auto payload = data.out_values;
    for (auto& values : payload) {
      for (auto& v : values) v += static_cast<real_t>(j);
    }
    independent[j] = cached.reduce(payload);
    for (std::size_t r = 0; r < payload.size(); ++r) {
      strided[r].resize(payload[r].size() * kPayloads);
      for (std::size_t p = 0; p < payload[r].size(); ++p) {
        strided[r][p * kPayloads + j] = payload[r][p];
      }
    }
  }
  stats.single_reduce_s = 1e30;
  stats.strided_reduce_s = 1e30;
  std::vector<std::vector<real_t>> strided_results;
  for (int i = 0; i < kTimed; ++i) {
    bench::WallTimer t;
    (void)cached.reduce(data.out_values);
    stats.single_reduce_s = std::min(stats.single_reduce_s, t.seconds());
    bench::WallTimer t2;
    strided_results = cached.reduce_strided(strided, kPayloads);
    stats.strided_reduce_s = std::min(stats.strided_reduce_s, t2.seconds());
  }
  stats.strided_identical = true;
  for (std::size_t r = 0; r < strided_results.size(); ++r) {
    for (std::uint32_t j = 0; j < kPayloads; ++j) {
      for (std::size_t p = 0; p < independent[j][r].size(); ++p) {
        if (strided_results[r][p * kPayloads + j] != independent[j][r][p]) {
          stats.strided_identical = false;
        }
      }
    }
  }
  return stats;
}

struct StreamingStats {
  std::uint64_t chunk_bytes = 0;
  std::uint32_t stride = 1;          ///< payloads interleaved per position
  std::uint32_t max_chunks = 1;      ///< chunks per letter at the widest edge
  std::uint64_t chunks_sent = 0;
  std::uint64_t blocks_flushed = 0;
  double overlap_ratio = 0;
  double letter_modeled_s = 0;       ///< barriered letter-at-once reduce
  double streamed_modeled_s = 0;     ///< pipelined chunked reduce
  std::uint64_t peak_stream_bytes = 0;
  std::uint64_t peak_letter_bytes = 0;
  bool identical = false;            ///< streamed results == letter results
};

/// Streaming pays off in the big-letter regime: chunks must stay at or
/// above the Fig. 2 efficiency knee, so the letters being split have to be
/// several knees wide. The presets' single-payload letters are *below* the
/// scaled knee (that is the autotuner's packet-floor operating point), so
/// the ablation drives the multi-payload strided replay — the repo's
/// natural large-payload mode — whose letters scale with the stride.
constexpr std::uint32_t kStreamStride = 16;

/// The streaming ablation (DESIGN §9), on the modeled network clock: replay
/// the stride-16 reduce letter-at-once and streamed, compare the barriered
/// time against the pipelined one, and check the streamed results are
/// bit-identical. The chunk size sweeps the knee's neighborhood and keeps
/// the best pipelined speedup — splitting finer multiplies the unhideable
/// per-chunk stack overhead, splitting coarser starves the pipeline, so
/// the sweep is U-shaped with an interior optimum.
StreamingStats run_streaming(const bench::Dataset& data,
                             const Topology& topology) {
  const NetworkModel net = bench::scaled_network();
  std::vector<std::vector<real_t>> interleaved(data.out_values.size());
  for (std::size_t r = 0; r < data.out_values.size(); ++r) {
    interleaved[r].resize(data.out_values[r].size() * kStreamStride);
    for (std::size_t p = 0; p < data.out_values[r].size(); ++p) {
      for (std::uint32_t c = 0; c < kStreamStride; ++c) {
        interleaved[r][p * kStreamStride + c] =
            data.out_values[r][p] + static_cast<real_t>(c);
      }
    }
  }
  const auto reduce_once = [&](std::uint64_t chunk_bytes,
                               TimingAccumulator& timing, StreamStats& stats) {
    ParallelBspEngine<real_t> engine(topology.num_machines(), 1, nullptr,
                                     nullptr, &timing);
    SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
        &engine, topology);
    allreduce.set_streaming(chunk_bytes != 0);
    allreduce.set_chunk_bytes(chunk_bytes);
    allreduce.configure(data.in_sets, data.out_sets);
    auto results = allreduce.reduce_strided(interleaved, kStreamStride);
    stats = allreduce.stream_stats();
    return results;
  };

  StreamingStats out;
  out.stride = kStreamStride;
  TimingAccumulator letter_timing(topology.num_machines(), net,
                                  ComputeModel{}, /*threads=*/1);
  StreamStats letter_stats;
  const auto letter_results = reduce_once(0, letter_timing, letter_stats);
  out.letter_modeled_s = letter_timing.pipelined_reduce_time(1);
  out.peak_letter_bytes = letter_stats.peak_letter_buffer_bytes;

  for (std::uint64_t chunk = 512u << 10; chunk >= 32u << 10; chunk /= 2) {
    TimingAccumulator timing(topology.num_machines(), net, ComputeModel{},
                             /*threads=*/1);
    StreamStats stats;
    const auto streamed_results = reduce_once(chunk, timing, stats);
    const std::uint32_t k = std::max(1u, stats.max_chunks_per_letter);
    if (k < 2) continue;  // nothing split: not a streamed data point
    const double streamed_s = timing.pipelined_reduce_time(k);
    if (out.chunk_bytes != 0 && streamed_s >= out.streamed_modeled_s) {
      continue;
    }
    out.chunk_bytes = chunk;
    out.max_chunks = k;
    out.chunks_sent = stats.chunks;
    out.blocks_flushed = stats.blocks_flushed;
    out.overlap_ratio = stats.overlap_ratio();
    out.streamed_modeled_s = streamed_s;
    out.peak_stream_bytes = stats.peak_stream_buffer_bytes;
    out.identical = streamed_results == letter_results;
  }
  return out;
}

struct AsyncStats {
  std::uint32_t inflight = 0;  ///< in-flight window of the overlapped run
  std::uint32_t streams = 0;   ///< total reduces pushed through the window
  double serialized_modeled_s = 0;  ///< window=1: one stream at a time
  double async_modeled_s = 0;       ///< window=kInflight: overlapped makespan
  double aggregate_speedup = 0;     ///< serialized / async makespan
  double serialized_reduces_per_s = 0;
  double async_reduces_per_s = 0;
  double latency_p50_s = 0;  ///< per-stream completion latency percentiles
  double latency_p99_s = 0;
  double tx_busy_s = 0;         ///< bottleneck NIC occupancy (lower bound)
  double tx_utilization = 0;    ///< tx_busy / async makespan
  bool bit_identical = false;   ///< every overlapped stream == its w=1 replay
};

constexpr std::uint32_t kInflight = 8;      ///< overlapped window
constexpr std::uint32_t kAsyncStreams = 16; ///< reduces pushed through it

/// The async-overlap ablation (DESIGN §11), on the modeled network clock:
/// push kAsyncStreams independent reduces through one AsyncExecutor with a
/// kInflight-stream window, against the serialized baseline — the *same*
/// executor, same modeled clocks, window=1, so the only variable is
/// overlap. A serialized replay pays NIC, compute, and handshake/
/// propagation latency sequentially on every stream's critical path; the
/// overlapped window keeps the per-rank NIC timelines busy with other
/// streams' letters during those gaps, and the paced admissions plus
/// gap-filling NIC model (DESIGN §11) let it run the bottleneck NIC at
/// ~95%+ occupancy. Aggregate reduces/sec is gated >= 1.3x by
/// tools/bench_check.sh; the window=1 results double as the per-stream
/// bit-identity check (both sides replay through ReduceExecutor, so it
/// holds by construction), and per-stream completion latencies feed the
/// histogram quantile machinery for the p50/p99 columns.
AsyncStats run_async(const bench::Dataset& data, const Topology& topology) {
  const NetworkModel net = bench::scaled_network();
  const ComputeModel compute{};
  const rank_t m = topology.num_machines();
  ParallelBspEngine<real_t> compile_engine(m, 1);
  SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> compiler(
      &compile_engine, topology);
  const auto plan = compiler.compile(data.in_sets, data.out_sets);

  // Stream i shifts every value by i so streams are distinguishable.
  std::vector<std::vector<std::vector<real_t>>> inputs(kAsyncStreams);
  for (std::uint32_t i = 0; i < kAsyncStreams; ++i) {
    inputs[i] = data.out_values;
    for (auto& values : inputs[i]) {
      for (auto& v : values) v += static_cast<real_t>(i);
    }
  }

  AsyncStats out;
  out.inflight = kInflight;
  out.streams = kAsyncStreams;

  const auto run = [&](std::uint32_t window, double& makespan,
                       std::vector<double>& latencies) {
    AsyncExecutor<real_t> ax;
    AsyncExecutor<real_t>::Options opts;
    opts.window = window;
    opts.network = &net;
    opts.compute = &compute;
    ax.bind(plan, opts);
    std::vector<std::uint32_t> tags;
    tags.reserve(kAsyncStreams);
    for (std::uint32_t i = 0; i < kAsyncStreams; ++i) {
      tags.push_back(ax.submit(inputs[i]));
    }
    ax.drain();
    makespan = ax.makespan_seconds();
    latencies = ax.completion_latencies();
    out.tx_busy_s = ax.max_tx_busy_seconds();
    std::vector<std::vector<std::vector<real_t>>> results;
    results.reserve(kAsyncStreams);
    for (const std::uint32_t tag : tags) {
      results.push_back(ax.take_result(tag));
    }
    return results;
  };

  double serial_makespan = 0;
  std::vector<double> serial_latencies;
  const auto serial_results = run(1, serial_makespan, serial_latencies);
  out.serialized_modeled_s = serial_makespan;

  std::vector<double> latencies;
  const auto async_results = run(kInflight, out.async_modeled_s, latencies);
  out.bit_identical = async_results == serial_results;
  out.tx_utilization =
      out.async_modeled_s > 0 ? out.tx_busy_s / out.async_modeled_s : 0;

  std::atomic<bool> on{true};
  obs::Histogram latency_hist(&on, obs::exponential_bounds(1e-5, 1.2, 80));
  for (const double s : latencies) latency_hist.observe(s);
  out.latency_p50_s = latency_hist.quantile(0.5);
  out.latency_p99_s = latency_hist.quantile(0.99);
  out.aggregate_speedup = out.async_modeled_s > 0
                              ? out.serialized_modeled_s / out.async_modeled_s
                              : 0;
  out.serialized_reduces_per_s = out.serialized_modeled_s > 0
                                     ? kAsyncStreams / out.serialized_modeled_s
                                     : 0;
  out.async_reduces_per_s =
      out.async_modeled_s > 0 ? kAsyncStreams / out.async_modeled_s : 0;
  return out;
}

struct ObservabilityStats {
  double bare_min_s = 0;          ///< warm replay, no observer attached
  double instrumented_min_s = 0;  ///< metrics + recorder + watchdog, no tracer
  double disabled_min_s = 0;      ///< observer attached, every sink dark
  double overhead_instrumented = 0;  ///< instrumented/bare - 1
  double overhead_disabled = 0;      ///< disabled/bare - 1
  double p50_round_s = 0;
  double p99_round_s = 0;
  double p999_round_s = 0;
  std::uint64_t events_recorded = 0;
  std::uint64_t slow_rounds = 0;
  std::uint64_t stragglers = 0;
};

/// More samples than the throughput loops: the overhead gate compares two
/// warm minima, so each side gets enough draws to shake scheduler noise.
constexpr int kObsTimed = 7;
/// The overhead estimate is the MEDIAN of kObsRepeats *paired* ratios.
/// Measuring all bare repeats and then all instrumented repeats lets host
/// load drift between the two blocks masquerade as (even negative)
/// overhead; instead each repeat times bare, instrumented, and dark
/// back-to-back and contributes one ratio, so drift cancels within the
/// pair and the median shakes off the one-sided scheduler outliers. This
/// keeps the column inside the tight absolute band bench_check.sh gates on.
constexpr int kObsRepeats = 5;

/// The observability-overhead ablation (gated by tools/bench_check.sh on
/// the *absolute* deviation): the same warm reduce replayed bare, fully
/// instrumented (flight recorder + percentile histograms + anomaly
/// watchdog; no span tracer), and with the observer attached but every sink
/// disabled. The instrumented pass also yields the round-latency
/// percentiles via the histogram quantile API.
ObservabilityStats run_observability(const bench::Dataset& data,
                                     const Topology& topology,
                                     unsigned threads) {
  ObservabilityStats out;
  ParallelBspEngine<real_t> engine(bench::kMachines, threads);
  SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
      &engine, topology);
  allreduce.configure(data.in_sets, data.out_sets);
  const auto warm_min = [&]() {
    for (int i = 0; i < kWarmups; ++i) (void)allreduce.reduce(data.out_values);
    double best = 1e30;
    for (int i = 0; i < kObsTimed; ++i) {
      bench::WallTimer t;
      (void)allreduce.reduce(data.out_values);
      best = std::min(best, t.seconds());
    }
    return best;
  };

  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(bench::kMachines, /*per_rank_capacity=*/256,
                               /*global_capacity=*/1024);
  obs::AnomalyWatchdog::Options wopt;
  wopt.metrics = &registry;
  wopt.recorder = &recorder;
  obs::AnomalyWatchdog watchdog(bench::kMachines, wopt);
  obs::TelemetryObserver::Options opt;
  opt.metrics = &registry;
  opt.recorder = &recorder;
  opt.watchdog = &watchdog;
  obs::TelemetryObserver observer(/*tracer=*/nullptr, bench::kMachines, opt);
  // Sinks dark: the observer still rides along, but the recorder is
  // switched off and no metrics/watchdog are attached — the cost of having
  // the seam at all.
  obs::TelemetryObserver::Options dark_opt;
  dark_opt.recorder = &recorder;
  obs::TelemetryObserver dark(/*tracer=*/nullptr, bench::kMachines, dark_opt);

  std::array<double, kObsRepeats> bare;
  std::array<double, kObsRepeats> instrumented;
  std::array<double, kObsRepeats> disabled;
  std::array<double, kObsRepeats> ratio_instrumented;
  std::array<double, kObsRepeats> ratio_disabled;
  for (int r = 0; r < kObsRepeats; ++r) {
    engine.set_observer(nullptr);
    bare[r] = warm_min();
    engine.set_observer(&observer);
    recorder.set_enabled(true);
    instrumented[r] = warm_min();
    engine.set_observer(&dark);
    recorder.set_enabled(false);
    disabled[r] = warm_min();
    engine.set_observer(nullptr);
    ratio_instrumented[r] = instrumented[r] / bare[r];
    ratio_disabled[r] = disabled[r] / bare[r];
  }
  const auto median = [](std::array<double, kObsRepeats>& v) {
    std::sort(v.begin(), v.end());
    return v[kObsRepeats / 2];
  };
  out.bare_min_s = median(bare);
  out.instrumented_min_s = median(instrumented);
  out.disabled_min_s = median(disabled);
  out.overhead_instrumented = median(ratio_instrumented) - 1.0;
  out.overhead_disabled = median(ratio_disabled) - 1.0;

  const obs::Histogram::Snapshot rounds =
      registry
          .histogram("engine.round_seconds",
                     obs::exponential_bounds(1e-6, 10, 8))
          .snapshot();
  out.p50_round_s = rounds.quantile(0.5);
  out.p99_round_s = rounds.quantile(0.99);
  out.p999_round_s = rounds.quantile(0.999);
  out.events_recorded = recorder.recorded();
  out.slow_rounds = watchdog.slow_rounds();
  out.stragglers = watchdog.stragglers();
  return out;
}

template <typename Engine>
ReduceStats run_engine(Engine& engine, const bench::Dataset& data,
                       const Topology& topology) {
  ReduceStats stats;
  SparseAllreduce<real_t, OpSum, Engine> allreduce(&engine, topology);
  {
    bench::WallTimer t;
    allreduce.configure(data.in_sets, data.out_sets);
    stats.configure_s = t.seconds();
  }
  {
    bench::WallTimer t;
    stats.results = allreduce.reduce(data.out_values);
    stats.cold_reduce_s = t.seconds();
  }
  for (int i = 0; i < kWarmups; ++i) (void)allreduce.reduce(data.out_values);
  stats.warm_min_s = 1e30;
  for (int i = 0; i < kTimed; ++i) {
    bench::WallTimer t;
    (void)allreduce.reduce(data.out_values);
    const double s = t.seconds();
    stats.warm_mean_s += s / kTimed;
    stats.warm_min_s = std::min(stats.warm_min_s, s);
  }
  return stats;
}

void emit_engine(obs::JsonWriter& json, const char* name,
                 const ReduceStats& stats) {
  json.key(name);
  json.begin_object();
  json.key_value("configure_s", stats.configure_s);
  json.key_value("cold_reduce_s", stats.cold_reduce_s);
  json.key_value("warm_reduce_mean_s", stats.warm_mean_s);
  json.key_value("warm_reduce_min_s", stats.warm_min_s);
  json.end_object();
}

struct HierarchyStats {
  std::uint32_t cores = 1;                 ///< cores per machine (c)
  std::vector<std::uint32_t> inter_degrees;
  double flat_modeled_reduce_s = 0;        ///< flat butterfly, modeled clock
  double hier_modeled_reduce_s = 0;        ///< two-tier, incl. intra stage
  double modeled_speedup = 0;
  double intra_config_s = 0;
  double intra_down_s = 0;
  double intra_up_s = 0;
  double inter_down_s = 0;
  double inter_up_s = 0;
  double seq_warm_mean_s = 0;              ///< one-thread warm, hier topology
  double par_warm_mean_s = 0;              ///< ParallelBspEngine warm, same
  double warm_speedup = 0;
  bool identical = false;                  ///< hier == flat, bit for bit
};

/// The two-tier ablation (DESIGN §13): fold the preset's first (largest)
/// butterfly degree into cores-per-machine, so the flat expansion of the
/// hierarchical topology is exactly the paper topology — the degree-d_1
/// network round becomes the leader's single-copy pass over co-located
/// member buffers. Modeled clocks come from a TimingAccumulator on the
/// sequential engine (flat charges inter rounds only; hierarchical splits
/// into intra memory-bus time plus the shortened inter schedule); the warm
/// wall-clock pair reruns the sequential-vs-parallel comparison on the
/// hierarchical plan, where per-host sharding gives the pool workers
/// contention-free intra rounds.
HierarchyStats run_hierarchy(const bench::Dataset& data,
                             const Topology& flat, unsigned threads) {
  HierarchyStats stats;
  stats.cores = flat.degree(1);
  std::vector<std::uint32_t> inter;
  for (std::uint16_t i = 2; i <= flat.num_layers(); ++i) {
    inter.push_back(flat.degree(i));
  }
  stats.inter_degrees = inter;
  const Topology hier(inter, stats.cores);

  const NetworkModel net = bench::scaled_network();
  // Both schedules run on the same physical hosts: c co-located ranks share
  // one NIC. The flat butterfly therefore gives each rank 1/c of the link
  // (CPU-side per-message costs — stack, handshake — stay per-rank), while
  // the hierarchical leaders own the full link and the member traffic rides
  // the memory bus. That asymmetry is the two-tier plan's whole case.
  NetworkModel flat_net = net;
  flat_net.bandwidth_bytes_per_s /= stats.cores;
  const ComputeModel compute;
  const auto modeled = [&](const Topology& topo, const NetworkModel& model,
                           TimingAccumulator& timing) {
    ParallelBspEngine<real_t> engine(bench::kMachines, 1, nullptr, nullptr,
                                     &timing);
    SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
        &engine, topo, &compute);
    allreduce.set_network(&model);
    allreduce.configure(data.in_sets, data.out_sets);
    return allreduce.reduce(data.out_values);
  };
  TimingAccumulator flat_timing(bench::kMachines, flat_net, compute);
  const auto flat_results = modeled(flat, flat_net, flat_timing);
  TimingAccumulator hier_timing(bench::kMachines, net, compute);
  const auto hier_results = modeled(hier, net, hier_timing);
  stats.identical = hier_results == flat_results;

  const auto ft = flat_timing.times();
  const auto ht = hier_timing.times();
  stats.flat_modeled_reduce_s = ft.reduce();
  stats.hier_modeled_reduce_s = ht.reduce();
  stats.modeled_speedup = stats.hier_modeled_reduce_s > 0
                              ? stats.flat_modeled_reduce_s /
                                    stats.hier_modeled_reduce_s
                              : 0;
  stats.intra_config_s = ht.intra_config;
  stats.intra_down_s = ht.intra_down;
  stats.intra_up_s = ht.intra_up;
  stats.inter_down_s = ht.reduce_down;
  stats.inter_up_s = ht.reduce_up;

  ParallelBspEngine<real_t> seq_engine(bench::kMachines, 1);
  const ReduceStats seq = run_engine(seq_engine, data, hier);
  ParallelBspEngine<real_t> par_engine(bench::kMachines, threads);
  const ReduceStats par = run_engine(par_engine, data, hier);
  stats.seq_warm_mean_s = seq.warm_mean_s;
  stats.par_warm_mean_s = par.warm_mean_s;
  stats.warm_speedup =
      par.warm_mean_s > 0 ? seq.warm_mean_s / par.warm_mean_s : 0;
  stats.identical = stats.identical && seq.results == par.results &&
                    seq.results == hier_results;
  return stats;
}

/// One instrumented configure+reduce on the parallel engine, populating
/// `registry` with the engine.* instruments plus per-layer byte counters
/// (layer<i>.<phase>_bytes / layer<i>.total_bytes) read off the trace.
void telemetry_pass(const bench::Dataset& data, const Topology& topology,
                    unsigned threads, obs::MetricsRegistry& registry) {
  Trace trace;
  obs::SpanTracer tracer;
  obs::TelemetryObserver::Options opt;
  opt.topology = &topology;
  opt.features = data.spec.num_vertices;
  opt.bytes_per_element = sizeof(real_t);
  opt.metrics = &registry;
  obs::TelemetryObserver observer(&tracer, bench::kMachines, opt);

  ParallelBspEngine<real_t> engine(bench::kMachines, threads, nullptr,
                                   &trace, nullptr);
  engine.set_observer(&observer);
  SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
      &engine, topology);
  allreduce.configure(data.in_sets, data.out_sets);
  (void)allreduce.reduce(data.out_values);

  const std::uint16_t layers = topology.num_layers();
  const auto config = trace.bytes_by_layer(Phase::kConfig, layers);
  const auto down = trace.bytes_by_layer(Phase::kReduceDown, layers);
  const auto up = trace.bytes_by_layer(Phase::kReduceUp, layers);
  for (std::uint16_t i = 0; i < layers; ++i) {
    const std::string prefix = "layer" + std::to_string(i + 1) + ".";
    registry.counter(prefix + "config_bytes").add(config[i]);
    registry.counter(prefix + "reduce_down_bytes").add(down[i]);
    registry.counter(prefix + "reduce_up_bytes").add(up[i]);
    registry.counter(prefix + "total_bytes")
        .add(config[i] + down[i] + up[i]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned hardware = std::thread::hardware_concurrency();
  unsigned threads = hardware;
  if (const char* env = std::getenv("KYLIX_BENCH_THREADS")) {
    threads = static_cast<unsigned>(std::atoi(env));
  }
  if (argc > 1) threads = static_cast<unsigned>(std::atoi(argv[1]));
  if (threads == 0) threads = 1;
  const char* out_path = argc > 2 ? argv[2] : "BENCH_engines.json";

  std::printf("# wall-clock engine bench: %u engine threads, %u hardware\n",
              threads, hardware);
  std::ofstream out(out_path);
  obs::JsonWriter json(out);
  json.begin_object();
  json.key_value("benchmark", std::string("wall_engines"));
  json.key_value("machines", static_cast<int>(bench::kMachines));
  // Containers and taskset often pin the process to fewer CPUs than
  // hardware_concurrency() reports; record both so thread-count columns in
  // the artifact can be interpreted (an affinity_cpus < hardware_concurrency
  // run is oversubscribed when engine_threads exceeds affinity_cpus).
  unsigned affinity = hardware;
#ifdef __linux__
  cpu_set_t cpuset;
  if (sched_getaffinity(0, sizeof(cpuset), &cpuset) == 0) {
    affinity = static_cast<unsigned>(CPU_COUNT(&cpuset));
  }
#endif
  json.key_value("hardware_concurrency", static_cast<int>(hardware));
  json.key_value("affinity_cpus", static_cast<int>(affinity));
  json.key_value("engine_threads", static_cast<int>(threads));
  json.key_value("warm_iterations", kTimed);
  json.key("presets");
  json.begin_array();

  for (const char* which : {"twitter", "yahoo"}) {
    const bench::Dataset data = bench::make_dataset(which);
    const Topology& topology = data.paper_topology;

    ParallelBspEngine<real_t> seq_engine(bench::kMachines, 1);
    const ReduceStats seq = run_engine(seq_engine, data, topology);
    ParallelBspEngine<real_t> par_engine(bench::kMachines, threads);
    const ReduceStats par = run_engine(par_engine, data, topology);
    const bool identical = seq.results == par.results;
    const double speedup = par.warm_mean_s > 0
                               ? seq.warm_mean_s / par.warm_mean_s
                               : 0;

    obs::MetricsRegistry registry;
    telemetry_pass(data, topology, threads, registry);

    // Merge ablation on this preset's real key sets: one allocating
    // tree_merge vs a warmed tree_merge_into per timed round.
    std::vector<std::span<const kylix::key_t>> spans;
    spans.reserve(data.out_sets.size());
    for (const KeySet& set : data.out_sets) spans.push_back(set.keys());
    MergeScratch scratch;
    UnionResult merged;
    for (int i = 0; i < kWarmups; ++i) tree_merge_into(spans, merged, scratch);
    double fresh_s = 1e30;
    double warm_s = 1e30;
    for (int i = 0; i < kTimed; ++i) {
      bench::WallTimer t;
      (void)tree_merge(spans);
      fresh_s = std::min(fresh_s, t.seconds());
      bench::WallTimer t2;
      tree_merge_into(spans, merged, scratch);
      warm_s = std::min(warm_s, t2.seconds());
    }

    std::printf("%-14s seq warm %.4fs  par warm %.4fs  speedup %.2fx  "
                "identical %s\n",
                data.name.c_str(), seq.warm_mean_s, par.warm_mean_s, speedup,
                identical ? "yes" : "NO");
    std::printf("%-14s merge fresh %.5fs  scratch %.5fs  (%.2fx)\n",
                data.name.c_str(), fresh_s, warm_s,
                warm_s > 0 ? fresh_s / warm_s : 0);

    const StreamingStats stream = run_streaming(data, topology);
    const double stream_speedup =
        stream.streamed_modeled_s > 0
            ? stream.letter_modeled_s / stream.streamed_modeled_s
            : 0;
    std::printf("%-14s streamed stride-%u, %s chunks (k=%u): modeled %.4fs "
                "vs %.4fs letter (%.2fx), overlap %.2f, identical %s\n",
                data.name.c_str(), stream.stride,
                format_bytes(static_cast<double>(stream.chunk_bytes)).c_str(),
                stream.max_chunks, stream.streamed_modeled_s,
                stream.letter_modeled_s, stream_speedup,
                stream.overlap_ratio, stream.identical ? "yes" : "NO");

    const AsyncStats async_stats = run_async(data, topology);
    std::printf("%-14s async %u-inflight (%u streams): modeled %.4fs vs "
                "%.4fs serialized (%.2fx, %.1f vs %.1f reduces/s), latency "
                "p50 %.4gs p99 %.4gs, NIC util %.0f%%, identical %s\n",
                data.name.c_str(), async_stats.inflight, async_stats.streams,
                async_stats.async_modeled_s, async_stats.serialized_modeled_s,
                async_stats.aggregate_speedup, async_stats.async_reduces_per_s,
                async_stats.serialized_reduces_per_s,
                async_stats.latency_p50_s, async_stats.latency_p99_s,
                100.0 * async_stats.tx_utilization,
                async_stats.bit_identical ? "yes" : "NO");

    const ObservabilityStats obs_stats =
        run_observability(data, topology, threads);
    std::printf("%-14s obs overhead: instrumented %+.2f%%  disabled %+.2f%%  "
                "round p50 %.4gs p99 %.4gs p999 %.4gs  (%llu events)\n",
                data.name.c_str(), obs_stats.overhead_instrumented * 100,
                obs_stats.overhead_disabled * 100, obs_stats.p50_round_s,
                obs_stats.p99_round_s, obs_stats.p999_round_s,
                static_cast<unsigned long long>(obs_stats.events_recorded));

    // The hierarchy block's pooled half runs on every visible CPU: its
    // gate asks what sharding hosts across the pool buys, which a pool of
    // engine_threads (1 in the committed baseline) cannot show.
    const HierarchyStats hier = run_hierarchy(data, topology, affinity);
    std::printf("%-14s hier c=%u: modeled reduce %.4fs vs %.4fs flat "
                "(%.2fx), intra %.4fs, warm par %.4fs vs seq %.4fs (%.2fx), "
                "identical %s\n",
                data.name.c_str(), hier.cores, hier.hier_modeled_reduce_s,
                hier.flat_modeled_reduce_s, hier.modeled_speedup,
                hier.intra_down_s + hier.intra_up_s, hier.par_warm_mean_s,
                hier.seq_warm_mean_s, hier.warm_speedup,
                hier.identical ? "yes" : "NO");

    const PlanReuseStats reuse = run_plan_reuse(seq_engine, data, topology);
    const double replay_speedup =
        reuse.replay_per_iter_s > 0
            ? reuse.combined_per_iter_s / reuse.replay_per_iter_s
            : 0;
    const double amortization =
        reuse.strided_reduce_s > 0
            ? kPayloads * reuse.single_reduce_s / reuse.strided_reduce_s
            : 0;
    std::printf("%-14s combined %.4fs/it  cached replay %.4fs/it (%.2fx)  "
                "%u-payload strided %.2fx vs %u singles, identical %s\n",
                data.name.c_str(), reuse.combined_per_iter_s,
                reuse.replay_per_iter_s, replay_speedup, kPayloads,
                amortization, kPayloads,
                reuse.strided_identical ? "yes" : "NO");

    json.begin_object();
    json.key_value("name", data.name);
    json.key("topology");
    json.begin_array();
    for (std::uint16_t i = 1; i <= topology.num_layers(); ++i) {
      json.value(static_cast<int>(topology.degree(i)));
    }
    json.end_array();
    emit_engine(json, "sequential", seq);
    emit_engine(json, "parallel", par);
    json.key_value("warm_speedup", speedup);
    json.key_value("results_bit_identical", identical);
    json.key("merge_ablation");
    json.begin_object();
    json.key_value("fresh_tree_merge_s", fresh_s);
    json.key_value("warm_tree_merge_into_s", warm_s);
    json.key_value("speedup", warm_s > 0 ? fresh_s / warm_s : 0);
    json.end_object();
    json.key("plan_reuse");
    json.begin_object();
    json.key_value("combined_per_iter_s", reuse.combined_per_iter_s);
    json.key_value("cached_replay_per_iter_s", reuse.replay_per_iter_s);
    json.key_value("cached_replay_speedup", replay_speedup);
    json.key_value("payloads", static_cast<int>(kPayloads));
    json.key_value("single_reduce_s", reuse.single_reduce_s);
    json.key_value("strided_reduce_s", reuse.strided_reduce_s);
    json.key_value("payload_amortization", amortization);
    json.key_value("strided_bit_identical", reuse.strided_identical);
    json.end_object();
    json.key("streaming");
    json.begin_object();
    json.key_value("chunk_bytes", stream.chunk_bytes);
    json.key_value("stride", static_cast<int>(stream.stride));
    json.key_value("max_chunks_per_letter",
                   static_cast<int>(stream.max_chunks));
    json.key_value("chunks_sent", stream.chunks_sent);
    json.key_value("blocks_flushed", stream.blocks_flushed);
    json.key_value("overlap_ratio", stream.overlap_ratio);
    json.key_value("letter_modeled_s", stream.letter_modeled_s);
    json.key_value("streamed_modeled_s", stream.streamed_modeled_s);
    json.key_value("modeled_speedup", stream_speedup);
    json.key_value("peak_stream_buffer_bytes", stream.peak_stream_bytes);
    json.key_value("peak_letter_buffer_bytes", stream.peak_letter_bytes);
    json.key_value("stream_bit_identical", stream.identical);
    json.end_object();
    json.key("async");
    json.begin_object();
    json.key_value("inflight", static_cast<int>(async_stats.inflight));
    json.key_value("streams", static_cast<int>(async_stats.streams));
    json.key_value("serialized_modeled_s", async_stats.serialized_modeled_s);
    json.key_value("async_modeled_s", async_stats.async_modeled_s);
    json.key_value("aggregate_speedup", async_stats.aggregate_speedup);
    json.key_value("serialized_reduces_per_s",
                   async_stats.serialized_reduces_per_s);
    json.key_value("async_reduces_per_s", async_stats.async_reduces_per_s);
    json.key_value("latency_p50_s", async_stats.latency_p50_s);
    json.key_value("latency_p99_s", async_stats.latency_p99_s);
    json.key_value("tx_busy_s", async_stats.tx_busy_s);
    json.key_value("tx_utilization", async_stats.tx_utilization);
    json.key_value("bit_identical", async_stats.bit_identical);
    json.end_object();
    json.key("hierarchy");
    json.begin_object();
    json.key_value("cores_per_machine", static_cast<int>(hier.cores));
    json.key("inter_degrees");
    json.begin_array();
    for (const std::uint32_t d : hier.inter_degrees) {
      json.value(static_cast<int>(d));
    }
    json.end_array();
    json.key_value("flat_modeled_reduce_s", hier.flat_modeled_reduce_s);
    json.key_value("hier_modeled_reduce_s", hier.hier_modeled_reduce_s);
    json.key_value("modeled_reduce_speedup", hier.modeled_speedup);
    json.key_value("intra_config_s", hier.intra_config_s);
    json.key_value("intra_down_s", hier.intra_down_s);
    json.key_value("intra_up_s", hier.intra_up_s);
    json.key_value("inter_down_s", hier.inter_down_s);
    json.key_value("inter_up_s", hier.inter_up_s);
    json.key_value("pool_threads", static_cast<int>(affinity));
    json.key_value("seq_warm_mean_s", hier.seq_warm_mean_s);
    json.key_value("par_warm_mean_s", hier.par_warm_mean_s);
    json.key_value("warm_speedup", hier.warm_speedup);
    json.key_value("results_bit_identical", hier.identical);
    json.end_object();
    json.key("observability");
    json.begin_object();
    json.key_value("bare_warm_min_s", obs_stats.bare_min_s);
    json.key_value("instrumented_warm_min_s", obs_stats.instrumented_min_s);
    json.key_value("disabled_warm_min_s", obs_stats.disabled_min_s);
    json.key_value("overhead_instrumented", obs_stats.overhead_instrumented);
    json.key_value("overhead_disabled", obs_stats.overhead_disabled);
    json.key_value("round_latency_p50_s", obs_stats.p50_round_s);
    json.key_value("round_latency_p99_s", obs_stats.p99_round_s);
    json.key_value("round_latency_p999_s", obs_stats.p999_round_s);
    json.key_value("events_recorded", obs_stats.events_recorded);
    json.key_value("slow_rounds", obs_stats.slow_rounds);
    json.key_value("stragglers", obs_stats.stragglers);
    json.end_object();
    json.key("telemetry");
    registry.write_json(json);
    json.end_object();
  }

  json.end_array();
  json.end_object();
  out << '\n';
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "error: could not write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
