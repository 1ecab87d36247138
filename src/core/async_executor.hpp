// AsyncExecutor — many in-flight plan replays over shared channels
// (DESIGN §11).
//
// Where ReduceExecutor walks one reduce through round barriers, this
// executor keeps a window of `window` concurrent streams in flight: each
// admitted stream occupies one *lane* (per-rank ReplayScratch + AsyncNode
// slot counters + a frozen fault script) and all lanes share one
// AsyncChannel — the mailboxes, the modeled NIC clocks, and, in the real
// cluster this models, the wires. Streams are sequence-tagged at submit();
// completion, per-stream latency, StreamStats, FaultStats, and results are
// tracked per tag, and finished lanes immediately admit the next pending
// stream, so the channel never idles between reduces the way the
// serialized path does.
//
// Scheduling. One deterministic event loop over a min-heap of (modeled
// time, lane, rank): pop the earliest runnable node, step() it until it
// parks on an incomplete inbox, and wake parked nodes when a routed batch
// completes their box. With a NetworkModel bound, the heap order IS the
// modeled cluster timeline: each rank's tx NIC is a gap-filling
// busy-interval timeline shared across lanes (work-conserving regardless
// of claim order — see NicTimeline), arrivals are sender-serialized plus
// handshake/propagation latency, and compute runs per-lane (one core per
// in-flight stream; within a stream the node clock serializes it). k
// overlapped streams thus fill the wire gaps a serialized run leaves idle
// — that gap recovery is the aggregate reduces/sec headline in
// bench/wall_engines. Admission is paced at the per-slot pipeline
// initiation interval, which bounds per-stream latency without costing
// throughput.
//
// Buffer economy. Lanes pool everything (scratch, letter shells, mailbox
// shells, value pools); a consumed buffer returns to its sender's pool as
// soon as it is consumed (one loop drives every node, so no cross-rank
// synchronization is needed). After the first batch warms the pools,
// submit()/drain() cycles are allocation-free, same as the serial executor
// (tests/core/alloc_test).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "cluster/netmodel.hpp"
#include "comm/async_engine.hpp"
#include "comm/packet.hpp"
#include "core/async_node.hpp"
#include "core/degraded.hpp"
#include "core/plan.hpp"
#include "core/replay_node.hpp"
#include "obs/flight_recorder.hpp"  // header-only; no kylix_obs link needed
#include "sparse/ops.hpp"

namespace kylix {

template <typename V, typename Op = OpSum>
class AsyncExecutor {
 public:
  struct Options {
    std::uint32_t window = 4;  ///< max concurrent in-flight streams (lanes)
    std::uint32_t stride = 1;  ///< payloads per key, interleaved key-major
    bool streaming = false;    ///< chunked letters (plan's chunk_bytes)
    std::uint64_t chunk_bytes_override = 0;
    const NetworkModel* network = nullptr;  ///< modeled clock
    const ComputeModel* compute = nullptr;  ///< per-consume compute charge
    EngineObserver* observer = nullptr;     ///< per-letter message/fault hooks
    obs::FlightRecorder* recorder = nullptr;  ///< stream admit/complete marks
  };

  static constexpr std::uint32_t kNoStream =
      std::numeric_limits<std::uint32_t>::max();

  AsyncExecutor() = default;

  /// Bind a compiled plan (shared with the plan cache) and freeze the run
  /// options. Rebinding keeps warmed lane buffers when the plan shape
  /// allows it; in-flight streams must be drained first.
  void bind(std::shared_ptr<const CollectivePlan> plan, const Options& opts) {
    KYLIX_CHECK(plan != nullptr);
    KYLIX_CHECK_MSG(plan->any_configured(),
                    "plan holds no configured rank to replay");
    KYLIX_CHECK_MSG(!plan->hierarchical(),
                    "async replay supports flat plans only (the intra-node "
                    "stage is a round barrier; see DESIGN §13)");
    KYLIX_CHECK(opts.window >= 1 && opts.stride >= 1);
    KYLIX_CHECK_MSG(active_streams_ == 0, "bind while streams in flight");
    plan_ = std::move(plan);
    opts_ = opts;
    layers_ = plan_->topology().num_layers();
    slots_ = AsyncSlots::count(layers_);
    const rank_t m = plan_->num_ranks();
    ctx_ = Ops::context(*plan_, opts_.stride, opts_.streaming,
                        opts_.chunk_bytes_override);
    // The clean script is shared by every fault-free stream: built once,
    // per-lane fault scripts are only populated on the faulted cold path.
    build_async_fault_script(ctx_, nullptr, clean_script_);
    lanes_.resize(opts_.window);
    for (Lane& lane : lanes_) {
      if (lane.scratch.size() < m) lane.scratch.resize(m);
      for (ReplayScratch<V>& s : lane.scratch) {
        if (s.letters.size() < layers_) s.letters.resize(layers_);
      }
      lane.nodes.resize(m);
      lane.node_clock.assign(m, 0.0);
      lane.parked_slot.assign(m, kNotParked);
      lane.stream = kNoStream;
    }
    cpu_busy_.assign(m, 0.0);
    pace_ = opts_.network != nullptr ? admission_pace() : 0.0;
    heap_.reserve(std::size_t{opts_.window} * m * (slots_ + 1));
    reset();
  }

  [[nodiscard]] bool bound() const { return plan_ != nullptr; }
  [[nodiscard]] const std::shared_ptr<const CollectivePlan>& plan() const {
    return plan_;
  }

  /// Membership epoch stamped on subsequent submissions (elastic
  /// membership, core/epoch_manager.hpp). The manager drains in-flight
  /// streams at the round barrier, rebinds the healed plan, then advances
  /// this — so every stream completes against the plan of the epoch it was
  /// admitted under (the executor's shared_ptr keeps an old-epoch plan
  /// alive even after the PlanCache evicts it).
  void set_epoch(std::uint64_t epoch) { epoch_ = epoch; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// The membership epoch stream `tag` was admitted under.
  [[nodiscard]] std::uint64_t stream_epoch(std::uint32_t tag) const {
    return streams_[live(tag)].epoch;
  }

  /// Submit one reduce as a new stream; returns its sequence tag. Admitted
  /// to a free lane immediately, else queued until one frees up during
  /// drain(). `faults` (optional, not owned, must outlive drain()) is this
  /// stream's private fault schedule — it is consumed by the admission
  /// precompute, so hand each stream its own identically-seeded plan when
  /// comparing against a serial oracle.
  std::uint32_t submit(std::vector<std::vector<V>> out_values,
                       FaultPlan* faults = nullptr) {
    KYLIX_CHECK(bound());
    // The serial executor's contract: a rank the plan does not cover may
    // only replay while dead, here by the stream's own FaultPlan.
    Ops::check_inputs(*plan_, opts_.stride, out_values, [&](rank_t r) {
      return faults != nullptr && faults->failures().is_dead(r);
    });
    const std::uint32_t tag = next_stream_++;
    if (streams_.size() == stream_count_) streams_.resize(stream_count_ + 1);
    Stream& st = streams_[stream_count_++];
    st.done = false;
    st.taken = false;
    st.admit_time = 0;
    st.finish_time = 0;
    st.stats = StreamStats{};
    st.faults = FaultStats{};
    st.epoch = epoch_;
    ++active_streams_;
    const std::size_t lane_id = free_lane();
    if (lane_id != kNoLane) {
      admit(lane_id, tag, std::move(out_values), faults, /*now=*/0.0);
    } else {
      Pending& p = pending_at(pending_tail_++);
      p.values = std::move(out_values);
      p.faults = faults;
      p.stream = tag;
    }
    return tag;
  }

  /// Run until every submitted stream has completed.
  void drain() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const Ready item = heap_.back();
      heap_.pop_back();
      step_node(item.lane, item.rank);
    }
    KYLIX_CHECK(active_streams_ == 0);
  }

  /// Move stream `tag`'s per-rank results out (empty vectors for ranks dead
  /// or unconfigured at completion). Valid once after drain().
  [[nodiscard]] std::vector<std::vector<V>> take_result(std::uint32_t tag) {
    Stream& st = streams_[live(tag)];
    KYLIX_CHECK_MSG(st.done && !st.taken, "stream not completed or taken");
    st.taken = true;
    return std::move(st.results);
  }

  /// Modeled completion latency of stream `tag` in seconds (admission to
  /// last node retiring); 0 without a NetworkModel.
  [[nodiscard]] double completion_seconds(std::uint32_t tag) const {
    const Stream& st = streams_[live(tag)];
    return st.finish_time - st.admit_time;
  }
  /// Modeled end of the whole batch (max stream finish time).
  [[nodiscard]] double makespan_seconds() const { return makespan_; }
  /// Completion latencies of the batch in completion order — feed these to
  /// an obs::Histogram for the p50/p99 machinery.
  [[nodiscard]] const std::vector<double>& completion_latencies() const {
    return latencies_;
  }
  /// Peak modeled per-rank resource occupancy this batch: how busy the
  /// busiest NIC direction and compute clock were. busy / makespan is the
  /// utilization the async-overlap bench reports; the max over the three
  /// is the lower bound no schedule can beat.
  [[nodiscard]] double max_tx_busy_seconds() const {
    return *std::max_element(channel_.tx_busy_seconds().begin(),
                             channel_.tx_busy_seconds().end());
  }
  [[nodiscard]] double max_rx_busy_seconds() const {
    return *std::max_element(channel_.rx_busy_seconds().begin(),
                             channel_.rx_busy_seconds().end());
  }
  [[nodiscard]] double max_cpu_busy_seconds() const {
    return *std::max_element(cpu_busy_.begin(), cpu_busy_.end());
  }
  /// The admission initiation interval bind() derived from the plan (0
  /// without a modeled clock).
  [[nodiscard]] double admission_pace_seconds() const { return pace_; }

  [[nodiscard]] const StreamStats& stream_stats(std::uint32_t tag) const {
    return streams_[live(tag)].stats;
  }
  /// The stream's frozen fault-schedule counters (what its FaultPlan
  /// classified during the admission precompute).
  [[nodiscard]] const FaultStats& fault_stats(std::uint32_t tag) const {
    return streams_[live(tag)].faults;
  }

  /// Per-stream completion report. Plain-channel semantics, exactly like
  /// the serial executor on the non-chaos engines: faults degrade
  /// individual ranks (empty results), never whole replica groups, so the
  /// run is exact for every surviving rank.
  [[nodiscard]] DegradedReport degraded_report(std::uint32_t tag) const {
    (void)live(tag);
    return DegradedReport{};
  }

  /// Forget completed streams and restart the modeled clock at zero. Keeps
  /// every warmed buffer (lanes, pools, mailboxes, stream slots), so the
  /// next batch replays allocation-free.
  void reset() {
    KYLIX_CHECK_MSG(active_streams_ == 0, "reset while streams in flight");
    stream_base_ = next_stream_;
    stream_count_ = 0;
    pending_head_ = 0;
    pending_tail_ = 0;
    latencies_.clear();
    makespan_ = 0;
    next_admit_ = 0;
    for (Lane& lane : lanes_) {
      lane.stream = kNoStream;
      std::fill(lane.node_clock.begin(), lane.node_clock.end(), 0.0);
      std::fill(lane.parked_slot.begin(), lane.parked_slot.end(), kNotParked);
    }
    std::fill(cpu_busy_.begin(), cpu_busy_.end(), 0.0);
    channel_.configure(plan_->num_ranks(), layers_, opts_.window,
                       opts_.network, opts_.observer);
  }

 private:
  using Ops = ReplayOps<V, Op>;
  static constexpr std::size_t kNoLane =
      std::numeric_limits<std::size_t>::max();
  static constexpr std::size_t kNotParked =
      std::numeric_limits<std::size_t>::max();

  struct Stream {
    std::vector<std::vector<V>> results;
    StreamStats stats;
    FaultStats faults;
    double admit_time = 0;
    double finish_time = 0;
    std::uint64_t epoch = 0;  ///< membership epoch at submit()
    bool done = false;
    bool taken = false;
  };

  struct Lane {
    std::vector<ReplayScratch<V>> scratch;  ///< per rank
    std::vector<AsyncNode<V, Op>> nodes;    ///< per rank
    std::vector<double> node_clock;         ///< per rank modeled "now"
    std::vector<std::size_t> parked_slot;   ///< per rank; kNotParked if not
    AsyncFaultScript fault_script;          ///< populated on faulted streams
    const AsyncFaultScript* script = nullptr;
    std::uint32_t stream = kNoStream;
    rank_t done_nodes = 0;
    double finish_time = 0;  ///< latest retired node clock
  };

  struct Pending {
    std::vector<std::vector<V>> values;
    FaultPlan* faults = nullptr;
    std::uint32_t stream = kNoStream;
  };

  /// Heap entry: earliest modeled time wins; (lane, rank) tie-break keeps
  /// the unmodeled (all-zero times) schedule deterministic too.
  struct Ready {
    double t = 0;
    std::uint32_t lane = 0;
    rank_t rank = 0;
    [[nodiscard]] bool operator>(const Ready& o) const {
      if (t != o.t) return t > o.t;
      if (lane != o.lane) return lane > o.lane;
      return rank > o.rank;
    }
  };

  /// The AsyncNode Port: binds one (lane, rank) step() to the shared
  /// channel and carries the node-local modeled clock through the step.
  struct Port {
    AsyncExecutor* ex;
    std::uint32_t lane_id;
    Lane* lane;
    rank_t rank;
    double now;  ///< node-local modeled time, advanced by consumed()

    [[nodiscard]] bool alive(std::size_t slot) const {
      return lane->script->alive(slot, rank);
    }
    void send(std::size_t slot, std::vector<Letter<V>>& letters) {
      ex->channel_.route(
          lane_id, slot, *lane->script, ex->layers_, letters, now,
          [&](rank_t dst, double ready) {
            ex->wake(*lane, lane_id, dst, slot, ready);
          });
    }
    [[nodiscard]] std::vector<Letter<V>>* inbox(std::size_t slot) {
      return ex->channel_.take_inbox(lane_id, rank, slot);
    }
    void consumed(std::size_t slot) {
      ReplayScratch<V>& s = lane->scratch[rank];
      const NodeWork work = std::exchange(s.work, NodeWork{});
      if (ex->opts_.network != nullptr) {
        const double arrived =
            ex->channel_.box_at(lane_id, rank, slot).ready_time;
        // Compute serializes within a stream (the node clock carries it)
        // but not across lanes: each in-flight stream replays on its own
        // core, the way a window of concurrent reduces lands on a
        // multicore machine. Only the NIC clocks are shared resources.
        const double start = std::max(now, arrived);
        const double cost = ex->opts_.compute == nullptr
                                ? 0.0
                                : work.seconds(*ex->opts_.compute);
        now = start + cost;
        ex->cpu_busy_[rank] += cost;
      }
      ex->return_spent(*lane, s);
    }
  };

  /// streams_ index of `tag`. Only tags submitted since the last reset()
  /// are live; bind() resets, so a tag from before a heal is stale.
  [[nodiscard]] std::size_t live(std::uint32_t tag) const {
    const std::size_t index = tag - stream_base_;
    KYLIX_CHECK_MSG(index < stream_count_,
                    "stream tag " << tag << " is not live (live tags: ["
                                  << stream_base_ << ", "
                                  << stream_base_ + stream_count_ << "))");
    return index;
  }
  [[nodiscard]] Pending& pending_at(std::size_t index) {
    if (pending_.size() <= index) pending_.resize(index + 1);
    return pending_[index];
  }
  [[nodiscard]] std::size_t free_lane() const {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i].stream == kNoStream) return i;
    }
    return kNoLane;
  }

  /// The pipeline initiation interval: the modeled tx occupancy one clean
  /// stream puts on its busiest NIC. Admitting streams any faster than this
  /// cannot raise throughput (the bottleneck NIC is already saturated) but
  /// does synchronize the lanes into slot-convoys — every lane's slot-s
  /// burst queues ahead of every lane's slot-s+1, so all lanes think (and
  /// leave the NICs idle) at the same time. Pacing admissions by this
  /// interval staggers the lanes into a software pipeline instead.
  [[nodiscard]] double admission_pace() const {
    const NetworkModel& net = *opts_.network;
    double pace = 0;
    for (std::size_t t = 0; t < slots_; ++t) {
      const Phase phase = AsyncSlots::phase(t, layers_);
      const std::uint16_t layer = AsyncSlots::layer(t, layers_);
      for (rank_t q = 0; q < plan_->num_ranks(); ++q) {
        if (!plan_->rank_plan(q).configured) continue;
        const PlanLayer& cfg = plan_->rank_plan(q).layers[layer - 1];
        double tx = 0;
        for (std::uint32_t d = 0; d < cfg.group.size(); ++d) {
          if (cfg.group[d] == q) continue;  // loopback never hits the NIC
          const std::size_t piece = cfg.piece(phase, d);
          for (std::uint32_t c = 0; c < ctx_.chunks(piece); ++c) {
            const std::uint64_t payload =
                sizeof(V) * std::uint64_t{ctx_.chunk_length(piece, c)} *
                opts_.stride;
            const std::uint64_t bytes =
                wire_frames(payload) * kPacketHeaderBytes + payload;
            tx += net.stack_overhead_s +
                  static_cast<double>(bytes) / net.bandwidth_bytes_per_s;
          }
        }
        pace = std::max(pace, tx);
      }
    }
    return pace;
  }

  /// Admit a stream to a free lane at modeled time `now`: freeze its fault
  /// script, reset mailboxes and nodes, load inputs, and schedule every
  /// participating node.
  void admit(std::size_t lane_id, std::uint32_t tag,
             std::vector<std::vector<V>> values, FaultPlan* faults,
             double now) {
    now = std::max(now, next_admit_);
    next_admit_ = now + pace_;
    Lane& lane = lanes_[lane_id];
    KYLIX_CHECK(lane.stream == kNoStream);
    lane.stream = tag;
    lane.done_nodes = 0;
    lane.finish_time = now;
    if (faults != nullptr) {
      build_async_fault_script(ctx_, faults, lane.fault_script);
      lane.script = &lane.fault_script;
    } else {
      lane.script = &clean_script_;
    }
    Stream& st = streams_[tag - stream_base_];
    st.admit_time = now;
    st.faults = lane.script->stats;
    channel_.open_lane(lane_id, *lane.script);
    const rank_t m = plan_->num_ranks();
    for (rank_t r = 0; r < m; ++r) {
      ReplayScratch<V>& s = lane.scratch[r];
      s.stream = StreamStats{};
      lane.node_clock[r] = now;
      lane.parked_slot[r] = kNotParked;
      // A rank the plan does not cover was checked dead at submit(); it
      // retires on its first step.
      if (plan_->rank_plan(r).configured) Ops::load_input(s, values[r]);
      lane.nodes[r].reset(&ctx_, r, &s);
    }
    for (rank_t r = 0; r < m; ++r) {
      push_ready({now, static_cast<std::uint32_t>(lane_id), r});
    }
    if (opts_.recorder != nullptr) {
      obs::FlightEvent e;
      e.kind = obs::FlightEventKind::kStreamAdmit;
      e.code = tag;
      e.value = static_cast<double>(st.epoch);  ///< admission epoch tag
      e.bytes = plan_->fingerprint();
      opts_.recorder->record(e);
    }
  }

  /// A routed batch completed (lane, dst, slot)'s box: if that node is
  /// parked exactly there, reschedule it. Nodes not yet at the slot will
  /// see the complete box when they arrive.
  void wake(Lane& lane, std::uint32_t lane_id, rank_t dst, std::size_t slot,
            double ready) {
    if (lane.parked_slot[dst] != slot) return;
    lane.parked_slot[dst] = kNotParked;
    push_ready({std::max(ready, lane.node_clock[dst]), lane_id, dst});
  }

  void push_ready(Ready item) {
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  /// Return one rank's consumed buffers to their senders' pools.
  void return_spent(Lane& lane, ReplayScratch<V>& s) {
    for (auto& [src, buf] : s.spent) {
      pool_recycle(lane.scratch[src].value_pool, buf);
    }
    s.spent.clear();
  }

  /// Step one node; park or retire it.
  void step_node(std::uint32_t lane_id, rank_t rank) {
    Lane& lane = lanes_[lane_id];
    AsyncNode<V, Op>& node = lane.nodes[rank];
    KYLIX_DCHECK(!node.done());  // one heap entry per unfinished node
    Port port{this, lane_id, &lane, rank, lane.node_clock[rank]};
    const bool finished = node.step(port);
    lane.node_clock[rank] = port.now;
    if (finished) {
      retire_node(lane, lane_id, rank);
    } else {
      lane.parked_slot[rank] = node.slot();
    }
  }

  /// Node finished (or died). When it is the lane's last, finalize the
  /// stream and hand the lane to the next pending submission.
  void retire_node(Lane& lane, std::uint32_t lane_id, rank_t rank) {
    lane.finish_time = std::max(lane.finish_time, lane.node_clock[rank]);
    if (++lane.done_nodes < plan_->num_ranks()) return;
    const std::uint32_t tag = lane.stream;
    Stream& st = streams_[tag - stream_base_];
    st.finish_time = lane.finish_time;
    st.done = true;
    makespan_ = std::max(makespan_, st.finish_time);
    latencies_.push_back(st.finish_time - st.admit_time);
    Ops::collect(ctx_, lane.scratch,
                 [&](rank_t r) { return lane.nodes[r].dead(); }, st.results,
                 st.stats);
    if (opts_.recorder != nullptr) {
      obs::FlightEvent e;
      e.kind = obs::FlightEventKind::kStreamComplete;
      e.code = tag;
      e.value = st.finish_time - st.admit_time;
      e.bytes = plan_->fingerprint();
      opts_.recorder->record(e);
    }
    lane.stream = kNoStream;
    --active_streams_;
    if (pending_head_ < pending_tail_) {
      Pending& p = pending_[pending_head_++];
      admit(lane_id, p.stream, std::move(p.values), p.faults,
            lane.finish_time);
      p.values.clear();
    }
  }

  std::shared_ptr<const CollectivePlan> plan_;
  Options opts_;
  ReplayContext ctx_;
  std::uint16_t layers_ = 0;
  std::size_t slots_ = 0;
  AsyncChannel<V> channel_;
  AsyncFaultScript clean_script_;  ///< shared by every fault-free stream
  std::vector<Lane> lanes_;
  std::vector<double> cpu_busy_;  ///< per-rank accumulated compute occupancy
  std::vector<Ready> heap_;       ///< min-heap via push_heap/pop_heap

  /// Stream table: slot i holds tag stream_base_ + i; reset() rebases and
  /// reuses the slots (and their vectors' capacity) for the next batch.
  std::vector<Stream> streams_;
  std::uint32_t stream_base_ = 0;
  std::size_t stream_count_ = 0;
  std::uint32_t next_stream_ = 0;
  std::size_t active_streams_ = 0;
  std::vector<Pending> pending_;
  std::size_t pending_head_ = 0;
  std::size_t pending_tail_ = 0;
  std::vector<double> latencies_;
  double makespan_ = 0;
  double pace_ = 0;        ///< admission initiation interval (modeled s)
  double next_admit_ = 0;  ///< earliest modeled time the next admit may use
  std::uint64_t epoch_ = 0;  ///< membership epoch for new submissions
};

}  // namespace kylix
