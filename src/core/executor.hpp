// ReduceExecutor — value-only replay of a compiled CollectivePlan.
//
// The executor is the mutable half of the plan/executor split: it binds an
// engine and per-rank value buffers to an immutable plan and replays the
// frozen schedule. A replayed reduce touches no routing state — no nodes are
// rebuilt, no sets are unioned, no splits recomputed — and is the only value
// path there is: slice by out_split, scatter_combine by out_maps in
// ascending sender digit, bottom gather by bottom_map, gather by in_maps,
// concatenate by in_split. Combined configure+reduce scatter-reduces on its
// configuration letters and then runs this class's up half (reduce_up), so
// its up pass is the same code as every replay's.
//
// The per-rank kernels live in core/replay_node.hpp (ReplayOps): this class
// is only the round-barriered *driver* — it owns the per-rank ReplayScratch
// slots, walks {down 1..l, up l..1} through the engine's round(), and keeps
// the telemetry/recycling that needs a barrier (stream-stats merge,
// spent-buffer return, flight events). The async executor
// (core/async_executor.hpp) replays every stream's values through this
// class too; only its modeled timeline is its own.
//
// Multi-payload: reduce_strided() pushes `stride` value vectors, interleaved
// key-major, through one replay. Every piece carries stride x the configured
// elements; keys are never resent. The strided kernels apply the reduction
// op per component in the same order a stride-1 replay would, so a strided
// reduce of k payloads is bit-identical to k independent reduces.
//
// Streaming mode (DESIGN §9): set_streaming(true) splits every reduce
// letter into chunks of the plan's compiled chunk_bytes (overridable via
// set_chunk_bytes_override), one Letter per chunk, and scatter-combines each
// chunk into the rank's union through a PosMap subspan as it is consumed.
// Chunks are processed in ascending (src, chunk_index) order — the exact
// per-position op order of letter-at-once delivery, since each sender
// touches each union position at most once — so streamed results are
// bit-identical on every engine. Block watermarks (blocks of chunk-size
// key ranges, flushed once their last contributing chunk lands) and the
// letter/stream buffer envelopes are accumulated into StreamStats; the
// pipelining payoff is priced by TimingAccumulator::pipelined_reduce_time.
//
// Allocation discipline: the caller's contributions are read in place and
// each one's buffer becomes its rank's result buffer (ReplayOps::load_input,
// hand_off_input), so no value is copied on the driving thread before round
// 1. Per-rank ReplayScratch pools its letter shells per layer, value
// buffers, ping-pong merge/below buffers and block-watermark scratch, so
// warm replays — flat or hierarchical, streamed or not — allocate nothing
// in the rounds and stay within an m+1 API-boundary budget: at most one
// result-buffer growth per rank plus the outer results vector
// (tests/core/alloc_test).
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/netmodel.hpp"
#include "comm/packet.hpp"
#include "core/plan.hpp"
#include "core/replay_node.hpp"
#include "core/stream_stats.hpp"
#include "obs/flight_recorder.hpp"  // header-only; no kylix_obs link needed
#include "sparse/ops.hpp"

namespace kylix {

template <typename V, typename Op, typename Engine>
class SparseAllreduce;

template <typename V, typename Op = OpSum, typename Engine = void>
class ReduceExecutor {
 public:
  /// intra_down's slices of a host union: enough tasks to keep every pool
  /// thread busy when hosts are fewer than threads.
  static constexpr std::size_t kHostSlicePositions = 1024;
  static constexpr std::size_t kMaxHostSlices = 8;

  ReduceExecutor() = default;

  /// Bind to `engine` (not owned, must outlive the executor) and `plan`.
  /// Rebinding to the same plan is a no-op; a different plan keeps the
  /// warmed buffers (they only ever grow). `compute` and `net` are optional
  /// pricing models; `net` prices the shared-memory tier of hierarchical
  /// plans (NetworkModel::intra_copy_time).
  void bind(Engine* engine, std::shared_ptr<const CollectivePlan> plan,
            const ComputeModel* compute = nullptr,
            const NetworkModel* net = nullptr) {
    KYLIX_CHECK(engine != nullptr && plan != nullptr);
    KYLIX_CHECK_MSG(engine->num_ranks() == plan->topology().num_machines(),
                    "engine/plan machine count mismatch");
    KYLIX_CHECK_MSG(plan->any_configured(),
                    "plan holds no configured rank to replay");
    engine_ = engine;
    compute_ = compute;
    net_ = net;
    if (plan_ == plan) return;
    plan_ = std::move(plan);
    const std::uint16_t l = plan_->topology().num_layers();
    if (state_.size() < plan_->num_ranks()) state_.resize(plan_->num_ranks());
    for (ReplayScratch<V>& s : state_) {
      if (s.letters.size() < l) s.letters.resize(l);
    }
    tasks_.reserve(std::max<std::size_t>(
        plan_->num_ranks(), plan_->intra_hosts().size() * kMaxHostSlices));
    gatherers_.reserve(plan_->num_ranks());
  }

  [[nodiscard]] bool bound() const { return plan_ != nullptr; }
  [[nodiscard]] const std::shared_ptr<const CollectivePlan>& plan() const {
    return plan_;
  }

  /// Toggle streamed replay. Takes effect on the next reduce; a streamed
  /// reduce with no chunk size (plan compiled without a network model and
  /// no override) degenerates to letter-at-once.
  void set_streaming(bool on) { streaming_ = on; }
  [[nodiscard]] bool streaming() const { return streaming_; }

  /// Tuning override for the plan's compiled chunk size, in payload bytes
  /// (0 restores the plan's value).
  void set_chunk_bytes_override(std::uint64_t bytes) {
    chunk_bytes_override_ = bytes;
  }

  /// Telemetry of the last reduce (valid after reduce()/reduce_strided()
  /// returns; merged over ranks in ascending order, so deterministic).
  [[nodiscard]] const StreamStats& stream_stats() const {
    return stream_stats_;
  }

  /// Attach a flight recorder (optional, not owned): replay begin/end
  /// markers (plan fingerprint in `bytes`) plus per-round stream-flush and
  /// buffer-watermark events, all recorded from the driving thread at the
  /// round barrier — allocation-free on warm replays.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }

  /// Replay one reduce. `out_values[r]` aligns with rank r's contributed
  /// key order; result[r] aligns with its requested key order. Dead or
  /// plan-unconfigured ranks yield empty results.
  [[nodiscard]] std::vector<std::vector<V>> reduce(
      std::vector<std::vector<V>> out_values) {
    return reduce_strided(std::move(out_values), 1);
  }

  /// Replay one reduce moving `stride` payloads at once: `out_values[r]`
  /// holds stride values per contributed key, interleaved key-major
  /// (the stride values of key p occupy [p*stride, (p+1)*stride)); the
  /// result uses the same layout over the requested keys.
  [[nodiscard]] std::vector<std::vector<V>> reduce_strided(
      std::vector<std::vector<V>> out_values, std::uint32_t stride) {
    KYLIX_CHECK(bound());
    KYLIX_CHECK(stride >= 1);
    Ops::check_inputs(*plan_, stride, out_values,
                      [&](rank_t r) { return engine_->is_dead(r); });
    begin_replay(stride, streaming_);
    for (rank_t r = 0; r < plan_->num_ranks(); ++r) {
      // Noted for dead and unconfigured ranks too: a dead-from-start
      // group's mass IS the loss.
      note_input_mass(engine_, r, out_values[r]);
      if (plan_->rank_plan(r).configured) {
        Ops::load_input(state_[r], out_values[r]);
      }
    }
    // Hierarchical plans (DESIGN §13) bracket the inter-node butterfly with
    // the shared-memory tier: leaders fold their co-located members'
    // contributions in before layer 1 and fan the results back out after
    // the retrace. Members sit out the inter-node rounds (their RankPlans
    // carry no layers), so the wire schedule between the intra stages is
    // exactly the flat schedule over host leaders.
    if (plan_->hierarchical()) intra_down();
    for (std::uint16_t layer = 1; layer <= plan_->topology().num_layers();
         ++layer) {
      run_round(Phase::kReduceDown, layer);
      collect_spent();
      record_stream_round(Phase::kReduceDown, layer);
    }
    return finish_replay();
  }

 private:
  using Ops = ReplayOps<V, Op>;

  // The combined configure+reduce pass scatter-reduces on its configuration
  // letters into lanes(), then finishes through reduce_up() below.
  friend class SparseAllreduce<V, Op, Engine>;

  /// Recovery-capable engines price group deaths by input mass Σ|v|.
  static void note_input_mass(Engine* engine, rank_t r,
                              const std::vector<V>& values) {
    if constexpr (std::is_arithmetic_v<V> &&
                  requires(Engine& e) { e.note_input_mass(r, 0.0); }) {
      double mass = 0.0;
      for (const V& v : values) mass += std::abs(static_cast<double>(v));
      engine->note_input_mass(r, mass);
    }
  }

  /// Freeze one replay's context (ReplayOps::context), reset the per-rank
  /// telemetry and open the flight-recorder marker.
  void begin_replay(std::uint32_t stride, bool streamed) {
    ctx_ = Ops::context(*plan_, stride, streamed, chunk_bytes_override_);
    round_blocks_flushed_ = 0;
    round_peak_stream_bytes_ = 0;
    if (recorder_ != nullptr) {
      replay_start_us_ = recorder_->now_us();
      obs::FlightEvent e;
      e.kind = obs::FlightEventKind::kReplayBegin;
      e.value = ctx_.stride;
      e.bytes = plan_->fingerprint();
      recorder_->record(e);
    }
    for (ReplayScratch<V>& s : state_) s.stream = StreamStats{};
  }

  /// Per-rank replay buffers for `ranks` ranks, before any plan is bound:
  /// combined configure+reduce scatter-reduces into them while configuring.
  [[nodiscard]] std::vector<ReplayScratch<V>>& lanes(rank_t ranks) {
    if (state_.size() < ranks) state_.resize(ranks);
    return state_;
  }

  /// The up half of a reduce whose scatter-reduce already ran on the
  /// configuration letters, leaving every configured rank's fully reduced
  /// bottom out-values in its lane's down buffer. Letter-at-once and stride
  /// 1, exactly the wire schedule the combined pass has always had.
  [[nodiscard]] std::vector<std::vector<V>> reduce_up() {
    KYLIX_CHECK(bound());
    begin_replay(1, /*streamed=*/false);
    return finish_replay();
  }

  /// Bottom gather, the allgather retrace {up l..1}, the intra-node fan-out
  /// of hierarchical plans, and the results; closes the telemetry.
  [[nodiscard]] std::vector<std::vector<V>> finish_replay() {
    const std::uint16_t l = plan_->topology().num_layers();
    gatherers_.clear();
    for (rank_t r = 0; r < plan_->num_ranks(); ++r) {
      const RankPlan& rp = plan_->rank_plan(r);
      // Hierarchical members hold no per-layer state: only union-holding
      // ranks (flat ranks, host leaders) run the bottom gather, also when
      // there is no inter-node layer (one host).
      if (engine_->is_dead(r) || !rp.configured ||
          (plan_->hierarchical() && !plan_->topology().is_leader(r))) {
        continue;
      }
      Ops::reserve_up(ctx_, state_[r], r);
      gatherers_.push_back(r);
    }
    // A pooled stage; the charges follow in ascending rank, the order of
    // additions of a serial loop.
    engine_->intra_round(Phase::kReduceDown,
                         static_cast<rank_t>(gatherers_.size()), [&](rank_t i) {
                           Ops::begin_up(ctx_, state_[gatherers_[i]],
                                         gatherers_[i]);
                         });
    for (const rank_t r : gatherers_) charge(Phase::kReduceDown, l, r);
    for (std::uint16_t layer = l; layer >= 1; --layer) {
      run_round(Phase::kReduceUp, layer);
      collect_spent();
      record_stream_round(Phase::kReduceUp, layer);
    }
    if (plan_->hierarchical()) intra_up();
    std::vector<std::vector<V>> results;
    Ops::collect(ctx_, state_, [&](rank_t r) { return engine_->is_dead(r); },
                 results, stream_stats_);
    if (recorder_ != nullptr) {
      obs::FlightEvent e;
      e.kind = obs::FlightEventKind::kReplayEnd;
      e.value = (recorder_->now_us() - replay_start_us_) * 1e-6;
      e.bytes = plan_->fingerprint();
      recorder_->record(e);
    }
    return results;
  }

  /// After each round barrier, diff the summed per-rank stream telemetry
  /// against the reduce-so-far totals and turn the deltas into flight
  /// events: one kStreamFlush per round that flushed blocks, one kWatermark
  /// whenever the peak stream-buffer envelope grew. Driving thread only.
  void record_stream_round(Phase phase, std::uint16_t layer) {
    if (recorder_ == nullptr || ctx_.chunk_positions == 0) return;
    std::uint64_t blocks = 0;
    std::uint64_t peak = 0;
    for (const ReplayScratch<V>& s : state_) {
      blocks += s.stream.blocks_flushed;
      peak = std::max(peak, s.stream.peak_stream_buffer_bytes);
    }
    if (blocks > round_blocks_flushed_) {
      obs::FlightEvent e;
      e.kind = obs::FlightEventKind::kStreamFlush;
      e.phase = phase;
      e.layer = layer;
      e.value = static_cast<double>(blocks - round_blocks_flushed_);
      recorder_->record(e);
      round_blocks_flushed_ = blocks;
    }
    if (peak > round_peak_stream_bytes_) {
      obs::FlightEvent e;
      e.kind = obs::FlightEventKind::kWatermark;
      e.phase = phase;
      e.layer = layer;
      e.bytes = peak;
      recorder_->record(e);
      round_peak_stream_bytes_ = peak;
    }
  }

  /// A rank sits a round out when its RankPlan carries no state for this
  /// layer: hierarchical non-leaders (empty layers — the host leader holds
  /// the union) never produce, expect, or consume inter-node letters.
  [[nodiscard]] bool sits_out(rank_t r, std::uint16_t layer) const {
    return plan_->rank_plan(r).layers.size() < layer;
  }

  void run_round(Phase phase, std::uint16_t layer) {
    engine_->round(
        phase, layer,
        [&](rank_t r) -> std::vector<Letter<V>>& {
          if (sits_out(r, layer)) return empty_letters_;
          return Ops::produce(ctx_, state_[r], r, phase, layer);
        },
        [&](rank_t r) -> const std::vector<rank_t>& {
          if (sits_out(r, layer)) return empty_ranks_;
          return plan_->rank_plan(r).layers[layer - 1].group;
        },
        [&](rank_t r, std::vector<Letter<V>>&& inbox) {
          if (sits_out(r, layer)) return;
          Ops::consume(ctx_, state_[r], r, phase, layer, std::move(inbox));
          charge(phase, layer, r);
        });
  }

  /// Shared-memory scatter-reduce (DESIGN §13): each host's leader folds
  /// its alive members' contributions straight out of the callers' vectors
  /// into the host out-union — single copy, no Packet serialization — in
  /// ascending member rank, the same per-position op order a flat layer
  /// over the host would produce (the c=1 / flat-expansion bit-identity
  /// argument). Each folded member's input buffer moves to its result slot
  /// first, and the fold reads it there. A host whose leader is dead
  /// contributes nothing (its members complete degraded in intra_up). The
  /// pool runs slices of host-union positions: a task owns its slice, so
  /// each position keeps its serial combine order.
  void intra_down() {
    tasks_.clear();
    const std::size_t stride = ctx_.stride;
    for (rank_t h = 0; h < plan_->intra_hosts().size(); ++h) {
      const IntraHost& ih = plan_->intra_host(h);
      if (ih.leader == kNoLeader || engine_->is_dead(ih.leader)) continue;
      ReplayScratch<V>& leader = state_[ih.leader];
      std::swap(leader.v, leader.merged);
      const std::size_t n = ih.out_union_size;
      reserve_fresh(leader.v, n * stride);
      leader.v.resize(n * stride);
      double elements = 0.0;
      std::uint32_t peers = 0;
      for (const rank_t m : ih.members) {
        if (engine_->is_dead(m)) continue;
        elements += static_cast<double>(state_[m].in.size());
        ++peers;
        Ops::hand_off_input(state_[m]);
      }
      charge_intra(Phase::kReduceDown, ih.leader, elements, peers);
      const std::size_t k =
          std::clamp<std::size_t>(n / kHostSlicePositions, 1, kMaxHostSlices);
      for (std::size_t j = 0; j < k; ++j) {
        tasks_.push_back({h, n * j / k, n * (j + 1) / k});
      }
    }
    const auto tasks = static_cast<rank_t>(tasks_.size());
    engine_->intra_round(Phase::kReduceDown, tasks, [&](rank_t t) {
      const auto [h, lo, hi] = tasks_[t];
      const IntraHost& ih = plan_->intra_host(h);
      const std::span<V> out(state_[ih.leader].v);
      std::fill(out.begin() + lo * stride, out.begin() + hi * stride,
                Op::template identity<V>());
      for (std::size_t i = 0; i < ih.members.size(); ++i) {
        // A member dead at replay is skipped — its contribution is lost,
        // exactly as a flat layer-1 crash of the same rank.
        if (engine_->is_dead(ih.members[i])) continue;
        // Maps are strictly increasing: the slice's part is one range.
        const std::span<const pos_t> map(ih.out_maps[i]);
        const std::size_t a =
            std::lower_bound(map.begin(), map.end(), lo) - map.begin();
        const std::size_t b =
            std::lower_bound(map.begin(), map.end(), hi) - map.begin();
        scatter_combine_strided<V, Op>(
            out,
            std::span<const V>(state_[ih.members[i]].vin)
                .subspan(a * stride, (b - a) * stride),
            map.subspan(a, b - a), stride);
      }
    });
  }

  /// Shared-memory allgather retrace, one task per (host, member): members
  /// gather their requested keys straight out of their leader's host
  /// in-union result, which first moves to the leader's `merged` so the
  /// leader can gather its own into `vin`. When the host lost its leader
  /// mid-run, its members resolve every requested key to the reduction
  /// identity (the host never entered the inter-node exchange), mirroring
  /// the degraded semantics of a dead flat rank's group peers.
  void intra_up() {
    tasks_.clear();
    for (rank_t h = 0; h < plan_->intra_hosts().size(); ++h) {
      const IntraHost& ih = plan_->intra_host(h);
      const bool alive =
          ih.leader != kNoLeader && !engine_->is_dead(ih.leader);
      if (alive) std::swap(state_[ih.leader].vin, state_[ih.leader].merged);
      double elements = 0.0;
      std::uint32_t peers = 0;
      for (std::size_t i = 0; i < ih.members.size(); ++i) {
        const rank_t m = ih.members[i];
        if (engine_->is_dead(m)) continue;
        ReplayScratch<V>& s = state_[m];
        pool_refill(s.value_pool, s.vin);
        if (!alive) {
          s.vin.assign(plan_->rank_plan(m).in0.size() * ctx_.stride,
                       Op::template identity<V>());
          continue;
        }
        const std::size_t n = ih.in_maps[i].size() * ctx_.stride;
        reserve_fresh(s.vin, n);
        elements += static_cast<double>(n);
        ++peers;
        tasks_.push_back({h, i, 0});
      }
      if (alive) charge_intra(Phase::kReduceUp, ih.leader, elements, peers);
    }
    const auto tasks = static_cast<rank_t>(tasks_.size());
    engine_->intra_round(Phase::kReduceUp, tasks, [&](rank_t t) {
      const IntraHost& ih = plan_->intra_host(tasks_[t].host);
      gather_strided_into(std::span<const V>(state_[ih.leader].merged),
                          std::span<const pos_t>(ih.in_maps[tasks_[t].lo]),
                          ctx_.stride, state_[ih.members[tasks_[t].lo]].vin);
    });
  }

  /// Price one host's intra stage on its leader: peer-buffer attaches plus
  /// memory-bus bytes (NetworkModel::intra_copy_time) plus the fold/gather
  /// compute. Hosts proceed concurrently, so TimingAccumulator::intra_time
  /// takes the max over ranks rather than summing.
  void charge_intra(Phase phase, rank_t leader, double elements,
                    std::uint32_t peers) {
    double seconds = 0.0;
    if (net_ != nullptr) {
      seconds += net_->intra_copy_time(elements * sizeof(V), peers);
    }
    if (compute_ != nullptr) {
      seconds += phase == Phase::kReduceDown
                     ? compute_->combine_time(elements)
                     : compute_->gather_time(elements);
    }
    if (seconds > 0.0) engine_->charge_intra(phase, leader, seconds);
  }

  void charge(Phase phase, std::uint16_t layer, rank_t r) {
    const NodeWork work = std::exchange(state_[r].work, NodeWork{});
    if (compute_ == nullptr || layer == 0) return;
    engine_->charge_compute(phase, layer, r, work.seconds(*compute_));
  }

  /// Chunked schedules are asymmetric — a rank rarely receives as many
  /// chunks as it sends — so recycling a spent buffer into the consumer's
  /// pool would slowly drain producer pools and hit the allocator on every
  /// warm replay. Consumers instead park their consumed inbox in `spent`;
  /// at the single-threaded barrier after each round the value buffers go
  /// back to the pool of the rank that sent them, so every producer opens
  /// the next round holding exactly the buffers (and capacities) it used
  /// last time.
  void collect_spent() {
    for (ReplayScratch<V>& s : state_) {
      for (auto& [src, buf] : s.spent) {
        KYLIX_DCHECK(src < state_.size());
        pool_recycle(state_[src].value_pool, buf);
      }
      s.spent.clear();
    }
  }

  /// Union positions [lo, hi) of `host` (intra_down), or its member lo.
  struct HostTask { rank_t host; std::size_t lo, hi; };

  Engine* engine_ = nullptr;
  const ComputeModel* compute_ = nullptr;
  const NetworkModel* net_ = nullptr;
  std::shared_ptr<const CollectivePlan> plan_;
  std::vector<Letter<V>> empty_letters_;  ///< rounds a rank sits out
  std::vector<rank_t> empty_ranks_;
  bool streaming_ = false;
  std::uint64_t chunk_bytes_override_ = 0;
  /// The replay context handed to every kernel call; frozen at the top of
  /// reduce_strided (plan pointer, stride, chunk schedule).
  ReplayContext ctx_;
  StreamStats stream_stats_;
  obs::FlightRecorder* recorder_ = nullptr;
  double replay_start_us_ = 0;  ///< recorder clock at kReplayBegin
  std::uint64_t round_blocks_flushed_ = 0;   ///< reduce-so-far flush total
  std::uint64_t round_peak_stream_bytes_ = 0;  ///< reduce-so-far watermark
  std::vector<ReplayScratch<V>> state_;
  std::vector<HostTask> tasks_;     ///< reserved at bind, as is gatherers_
  std::vector<rank_t> gatherers_;  ///< the ranks that run the bottom gather
};

}  // namespace kylix
