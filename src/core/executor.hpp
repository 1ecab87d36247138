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
// The per-rank stages live in core/replay_node.hpp (ReplayOps): this class
// is only the *driver* — it owns the per-rank ReplayScratch slots and walks
// {down 1..l, up l..1}. Each round's callbacks only hand letters over and
// park the inbox (the accounting stays there, charged in rank order); the
// values move in pooled stages around the rounds (intra_round), cut into
// slices of letters and kept buffers rather than ranks, so a few busy
// ranks — the host leaders of a two-tier plan — still use every pool
// thread:
//
//   fold or pack -> down 1 -> combine -> ... -> down l -> combine
//   bottom gather -> pack -> up l -> combine -> ... -> up 1 -> combine
//   -> fan-out
//
// A down combine writes straight into the next round's letters (the host
// fold into round 1's), so no union is copied into letters. The executor
// keeps the telemetry and recycling that needs a barrier (stream-stats
// merge, parked-buffer return, flight events). The async executor
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
// set_chunk_bytes_override), one Letter per chunk, and combines each chunk
// into the rank's union through a PosMap subspan. Chunks combine in
// ascending (src, chunk_index) order — the exact per-position op order of
// letter-at-once delivery, since each sender touches each union position
// at most once — so streamed results are bit-identical on every engine.
// Block watermarks (blocks of chunk-size key ranges, flushed once their
// last contributing chunk lands) and the letter/stream buffer envelopes
// are accumulated into StreamStats; the pipelining payoff is priced by
// TimingAccumulator::pipelined_reduce_time.
//
// Allocation discipline: the caller's contributions are read in place and
// each one's buffer becomes its rank's result buffer (ReplayOps::load_input,
// hand_off_input), so no value is copied on the driving thread before round
// 1. Per-rank ReplayScratch pools its letter shells per layer, value
// buffers, kept union buffers and block-watermark scratch, so warm
// replays — flat or hierarchical, streamed or not — allocate nothing in
// the rounds and stay within an m+1 API-boundary budget: at most one
// result-buffer growth per rank plus the outer results vector
// (tests/core/alloc_test). Buffers several slices write grow on the driving
// thread before their stage; a letter grows, if it must, in its own task.
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
    // A stage has one slice per letter or per run of a kept buffer; a
    // streamed or strided replay that needs more grows the list once.
    std::size_t slices = 0;
    for (rank_t r = 0; r < plan_->num_ranks(); ++r) {
      std::size_t most = 1;
      for (const PlanLayer& cfg : plan_->rank_plan(r).layers) {
        most = std::max(most, cfg.group.size());
      }
      slices += most;
    }
    slices_.reserve(slices);
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
    // exactly the flat schedule over host leaders. A flat plan's layer-1
    // letters are packed out of the contributions instead.
    const std::uint16_t l = plan_->topology().num_layers();
    if (plan_->hierarchical()) {
      intra_down();
    } else if (l >= 1) {
      pack(Phase::kReduceDown, 1);
    }
    for (std::uint16_t layer = 1; layer <= l; ++layer) {
      run_round(Phase::kReduceDown, layer);
      record_stream_round(Phase::kReduceDown, layer);
      combine(Phase::kReduceDown, layer);
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
    // Hierarchical members hold no per-layer state: only union-holding
    // ranks (flat ranks, host leaders) run the bottom gather, also when
    // there is no inter-node layer (one host).
    const auto gathers = [&](rank_t r) {
      return !engine_->is_dead(r) && plan_->rank_plan(r).configured &&
             (!plan_->hierarchical() || plan_->topology().is_leader(r));
    };
    stage(Phase::kReduceDown, gathers,
          [&](rank_t r) { Ops::plan_bottom(ctx_, state_[r], r, slices_); },
          [&](const Slice& t) { Ops::gather_bottom(ctx_, state_[t.rank], t); });
    // The charges follow in ascending rank, the order of additions of a
    // serial loop.
    for (rank_t r = 0; r < plan_->num_ranks(); ++r) {
      if (!gathers(r)) continue;
      Ops::finish_bottom(ctx_, state_[r], r);
      charge(Phase::kReduceDown, l, r);
    }
    for (std::uint16_t layer = l; layer >= 1; --layer) {
      pack(Phase::kReduceUp, layer);
      run_round(Phase::kReduceUp, layer);
      record_stream_round(Phase::kReduceUp, layer);
      combine(Phase::kReduceUp, layer);
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

  /// One pooled stage with no letters on the wire: `plan_rank` sizes the
  /// targets of every rank `takes_part` picks and appends its slices to
  /// slices_ on the driving thread, then the pool runs `run_slice` once
  /// per slice.
  template <typename TakesPart, typename PlanFn, typename RunFn>
  void stage(Phase phase, TakesPart&& takes_part, PlanFn&& plan_rank,
             RunFn&& run_slice) {
    slices_.clear();
    for (rank_t r = 0; r < plan_->num_ranks(); ++r) {
      if (takes_part(r)) plan_rank(r);
    }
    engine_->intra_round(phase, static_cast<rank_t>(slices_.size()),
                         [&](rank_t t) { run_slice(slices_[t]); });
  }

  /// The ranks in a round: alive, and holding state for its layer.
  [[nodiscard]] bool in_round(rank_t r, std::uint16_t layer) const {
    return !engine_->is_dead(r) && !sits_out(r, layer);
  }

  /// Fill the letters of round {phase, layer} that no combine wrote: a
  /// flat plan's layer-1 letters, and every up round's.
  void pack(Phase phase, std::uint16_t layer) {
    stage(
        phase, [&](rank_t r) { return in_round(r, layer); },
        [&](rank_t r) {
          Ops::plan_letters(ctx_, state_[r], r, phase, layer, slices_);
        },
        [&](const Slice& t) {
          Ops::pack(ctx_, state_[t.rank], phase, layer, t);
        });
  }

  /// Combine what round {phase, layer} parked, then return the parked
  /// buffers to their senders' pools.
  void combine(Phase phase, std::uint16_t layer) {
    stage(
        phase, [&](rank_t r) { return in_round(r, layer); },
        [&](rank_t r) {
          Ops::plan_combine(ctx_, state_[r], r, phase, layer, slices_);
        },
        [&](const Slice& t) {
          Ops::combine(ctx_, state_[t.rank], phase, layer, t);
        });
    Ops::recycle(state_);
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
          return Ops::hand_over(ctx_, state_[r], r, phase, layer);
        },
        [&](rank_t r) -> const std::vector<rank_t>& {
          if (sits_out(r, layer)) return empty_ranks_;
          return plan_->rank_plan(r).layers[layer - 1].group;
        },
        [&](rank_t r, std::vector<Letter<V>>&& inbox) {
          if (sits_out(r, layer)) return;
          Ops::park(ctx_, state_[r], r, phase, layer, std::move(inbox));
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
  /// fold is the down combine of node layer 0: its slices write the
  /// leader's layer-1 letters, or its kept host union when the plan has no
  /// inter-node layer.
  void intra_down() {
    slices_.clear();
    for (rank_t h = 0; h < plan_->intra_hosts().size(); ++h) {
      const IntraHost& ih = plan_->intra_host(h);
      if (ih.leader == kNoLeader || engine_->is_dead(ih.leader)) continue;
      double elements = 0.0;
      std::uint32_t peers = 0;
      for (const rank_t m : ih.members) {
        if (engine_->is_dead(m)) continue;
        elements += static_cast<double>(state_[m].in.size());
        ++peers;
        Ops::hand_off_input(state_[m]);
      }
      charge_intra(Phase::kReduceDown, ih.leader, elements, peers);
      Ops::plan_combine(ctx_, state_[ih.leader], ih.leader,
                        Phase::kReduceDown, 0, slices_);
    }
    engine_->intra_round(
        Phase::kReduceDown, static_cast<rank_t>(slices_.size()),
        [&](rank_t i) {
          const Slice& t = slices_[i];
          const IntraHost& ih =
              plan_->intra_host(plan_->topology().host_of(t.rank));
          const std::span<V> out =
              Ops::down_target(ctx_, state_[t.rank], 0, t);
          for (std::size_t k = 0; k < ih.members.size(); ++k) {
            // A member dead at replay is skipped — its contribution is
            // lost, exactly as a flat layer-1 crash of the same rank.
            if (engine_->is_dead(ih.members[k])) continue;
            Ops::combine_part(out, t.lo, t.hi, ih.out_maps[k],
                              state_[ih.members[k]].vin, ctx_.stride);
          }
        });
  }

  /// Shared-memory allgather retrace, one task per (host, member): members
  /// gather their requested keys straight out of their leader's host
  /// in-union. When the host lost its leader mid-run, its members resolve
  /// every requested key to the reduction identity (the host never entered
  /// the inter-node exchange), mirroring the degraded semantics of a dead
  /// flat rank's group peers.
  void intra_up() {
    slices_.clear();
    for (rank_t h = 0; h < plan_->intra_hosts().size(); ++h) {
      const IntraHost& ih = plan_->intra_host(h);
      const bool alive =
          ih.leader != kNoLeader && !engine_->is_dead(ih.leader);
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
        slices_.push_back({m, Slice::kResult, 0, ih.in_maps[i].size()});
      }
      if (alive) charge_intra(Phase::kReduceUp, ih.leader, elements, peers);
    }
    engine_->intra_round(
        Phase::kReduceUp, static_cast<rank_t>(slices_.size()),
        [&](rank_t i) {
          const Slice& t = slices_[i];
          const IntraHost& ih =
              plan_->intra_host(plan_->topology().host_of(t.rank));
          const std::size_t k =
              std::lower_bound(ih.members.begin(), ih.members.end(), t.rank) -
              ih.members.begin();
          gather_strided_into(
              std::span<const V>(Ops::up_values(ctx_, state_[ih.leader], 0)),
              std::span<const pos_t>(ih.in_maps[k]), ctx_.stride,
              state_[t.rank].vin);
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
  std::vector<Slice> slices_;  ///< the running stage's tasks; reserved at bind
};

}  // namespace kylix
