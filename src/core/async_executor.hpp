// AsyncExecutor — many in-flight reduces priced on one modeled timeline
// (DESIGN §11).
//
// Overlap moves time, never operands: every consume reads a complete inbox
// sorted by (src, chunk), so a stream's values are those of its own serial
// replay whatever the other streams do. The executor is therefore two parts:
//
//   * submit() replays the stream at once with ReduceExecutor on the
//     executor's own one-thread ParallelBspEngine, the stream's FaultPlan
//     behind a fresh FaultChannel so that a delayed letter dies with its
//     stream. That yields the results, StreamStats and FaultStats. For a
//     faulted stream a small EngineObserver (FateLog) also records what the
//     replay's Wire did to each letter and the slot each rank died in.
//   * drain() prices the streams on the modeled clock without touching a
//     value. It reads the plan's letter schedule (PlanLayer::piece cut by
//     ReplayContext::chunks), those fates, and NodeWork::seconds over the
//     element counts ReplayOps charges.
//
// The pricer. Each admitted stream occupies one *lane*: a node per rank
// walking the reduce's 2l slots (down layers 1..l, then up l..1). In each
// slot a node sends its letters once, parks until its box — the letters
// that arrive for it in that slot — is complete, and consumes it. One
// deterministic event loop pops the earliest (modeled time, lane, rank)
// from a min-heap and steps that node; the letter that completes a box
// wakes only the node parked on that slot. Each rank's tx NIC is a
// gap-filling NicTimeline shared across lanes, arrival is
// sender-serialized plus handshake and propagation latency, and compute
// runs per lane (one core per in-flight stream; within a stream the node
// clock serializes it). k overlapped streams thus fill the wire gaps a
// serialized run leaves idle — the aggregate reduces/sec headline that
// tests/paper asserts. Admission is paced at the per-slot pipeline
// initiation interval, which bounds per-stream latency without costing
// throughput, and a finished lane at once admits the next queued stream.
//
// Buffer economy. The replay is ReduceExecutor's with its pools, and the
// pricer's lanes, heap, stream table and NIC timelines keep their capacity
// across batches, so a warm submit/drain/take_result/reset batch allocates
// only what leaves with the caller (tests/core/alloc_test).
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
#include "cluster/nic_timeline.hpp"
#include "comm/fault_channel.hpp"
#include "comm/packet.hpp"
#include "comm/parallel.hpp"
#include "core/degraded.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "core/replay_node.hpp"
#include "obs/flight_recorder.hpp"  // header-only; no kylix_obs link needed
#include "obs/observer.hpp"
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
    obs::FlightRecorder* recorder = nullptr;  ///< stream admit/complete marks
  };

  static constexpr std::uint32_t kNoStream =
      std::numeric_limits<std::uint32_t>::max();

  AsyncExecutor() = default;

  /// Bind a compiled plan (shared with the plan cache) and freeze the run
  /// options. Rebinding keeps warmed buffers when the plan shape allows
  /// it; in-flight streams must be drained first.
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
    ranks_ = plan_->num_ranks();
    layers_ = plan_->topology().num_layers();
    slots_ = 2u * std::size_t{layers_};
    if (engine_ == nullptr || engine_->num_ranks() != ranks_) {
      engine_ = std::make_unique<ParallelBspEngine<V>>(ranks_, 1);
    }
    executor_.bind(engine_.get(), plan_);
    executor_.set_streaming(opts_.streaming);
    executor_.set_chunk_bytes_override(opts_.chunk_bytes_override);
    build_schedule();
    lanes_.resize(opts_.window);
    for (Lane& lane : lanes_) {  // all free: nothing is in flight
      lane.nodes.resize(ranks_);
      lane.boxes.resize(std::size_t{ranks_} * slots_);
    }
    tx_line_.resize(ranks_);
    heap_.reserve(std::size_t{opts_.window} * ranks_);
    reset();
  }

  [[nodiscard]] bool bound() const { return plan_ != nullptr; }
  [[nodiscard]] const std::shared_ptr<const CollectivePlan>& plan() const {
    return plan_;
  }

  /// Membership epoch stamped on subsequent submissions (elastic
  /// membership, core/epoch_manager.hpp). The manager drains in-flight
  /// streams at the round barrier, rebinds the healed plan, then advances
  /// this — so every stream is replayed and priced against the plan of the
  /// epoch it was submitted under (the executor's shared_ptr keeps an
  /// old-epoch plan alive even after the PlanCache evicts it).
  void set_epoch(std::uint64_t epoch) { epoch_ = epoch; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// The membership epoch stream `tag` was submitted under.
  [[nodiscard]] std::uint64_t stream_epoch(std::uint32_t tag) const {
    return streams_[live(tag)].epoch;
  }

  /// Submit one reduce as a new stream; returns its sequence tag. The
  /// stream's values are replayed here and now; its modeled timeline is
  /// priced by drain(), in a free lane or once one frees up. `faults`
  /// (optional, not owned) is this stream's private fault schedule and is
  /// consumed by that replay, so hand each stream its own plan. A stream
  /// whose plan revives a rank mid-stream is rejected before it gets a tag:
  /// with no round barrier there is no point at which a revived rank could
  /// rejoin it.
  std::uint32_t submit(std::vector<std::vector<V>> out_values,
                       FaultPlan* faults = nullptr) {
    KYLIX_CHECK(bound());
    if (streams_.size() == stream_count_) streams_.resize(stream_count_ + 1);
    Stream& st = streams_[stream_count_];
    replay(st, std::move(out_values), faults);
    st.done = false;
    st.taken = false;
    st.admit_time = 0;
    st.finish_time = 0;
    st.epoch = epoch_;
    const std::uint32_t tag = next_stream_++;
    ++stream_count_;
    ++active_streams_;
    // A free lane means nothing is queued, so this stream is the next one.
    const std::size_t lane_id = free_lane();
    if (lane_id != kNoLane) admit(lane_id, /*now=*/0.0);
    return tag;
  }

  /// Price every submitted stream until all have completed.
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
  /// Peak modeled per-rank NIC send occupancy this batch. busy / makespan
  /// is the utilization the async-overlap bench reports, and no schedule
  /// can finish before it.
  [[nodiscard]] double max_tx_busy_seconds() const {
    return *std::max_element(tx_busy_.begin(), tx_busy_.end());
  }

  [[nodiscard]] const StreamStats& stream_stats(std::uint32_t tag) const {
    return streams_[live(tag)].stats;
  }
  /// The stream's fault counters: what its FaultPlan fired and classified
  /// during the replay.
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
  /// every warmed buffer (replay pools, lanes, stream slots), so the next
  /// batch replays allocation-free.
  void reset() {
    KYLIX_CHECK_MSG(active_streams_ == 0, "reset while streams in flight");
    stream_base_ = next_stream_;
    stream_count_ = 0;
    admitted_ = 0;
    latencies_.clear();
    makespan_ = 0;
    next_admit_ = 0;
    for (NicTimeline& line : tx_line_) line.clear();
    tx_busy_.assign(ranks_, 0.0);
  }

 private:
  static constexpr std::size_t kNoLane =
      std::numeric_limits<std::size_t>::max();

  /// What the wire did to one letter, as far as the timeline is concerned.
  enum class Fate : std::uint8_t {
    kArrives,     ///< delivered once, charged once
    kDuplicated,  ///< delivered once, charged twice
    kLost,        ///< charged, never arrives: dead destination, drop, delay
  };

  /// One letter of the plan's static schedule.
  struct Send {
    rank_t dst = 0;
    std::uint64_t bytes = 0;  ///< wire bytes, headers included
    double elements = 0;      ///< values carried (positions x stride)
  };

  struct Stream {
    std::vector<std::vector<V>> results;
    StreamStats stats;
    FaultStats faults;
    /// Faulted streams only; empty means every letter arrives and no rank
    /// dies. fates[i] belongs to sends_[i]; dies_at[r] is the first slot
    /// rank r is dead in (slots_ if it never dies).
    std::vector<Fate> fates;
    std::vector<std::size_t> dies_at;
    double admit_time = 0;
    double finish_time = 0;
    std::uint64_t epoch = 0;  ///< membership epoch at submit()
    bool done = false;
    bool taken = false;
  };

  /// One rank of one lane. A node that sent in its slot and has not
  /// consumed it yet is parked on that slot's box.
  struct Node {
    double clock = 0;      ///< node-local modeled "now"
    std::size_t slot = 0;  ///< the slot it acts in next
    bool sent = false;     ///< this slot's letters went out
  };

  /// What arrives for one rank in one slot.
  struct Box {
    std::uint32_t pending = 0;  ///< letters still to arrive
    double ready = 0;           ///< latest arrival so far
    double combine = 0;         ///< elements a down consume scatter-combines
  };

  struct Lane {
    std::vector<Node> nodes;  ///< per rank
    std::vector<Box> boxes;   ///< [rank * slots_ + slot]
    std::uint32_t stream = kNoStream;
    rank_t done_nodes = 0;
    double finish_time = 0;  ///< latest retired node clock
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

  /// Watches a faulted stream's replay. The Wire reports letters in the
  /// schedule's order (ascending sender, then produce order), so the
  /// sender's first schedule index plus a running count names each one.
  class FateLog final : public EngineObserver {
   public:
    FateLog(const AsyncExecutor& ex, Stream& st, const FailureModel& failures)
        : ex_(ex), st_(st), failures_(failures) {}
    FateLog(const FateLog&) = delete;  // the engine holds its address

    void on_round_begin(Phase, std::uint16_t) override {
      slot_ = rounds_++;
      src_ = kNoSender;
      for (rank_t r = 0; r < ex_.ranks_; ++r) {
        if (ex_.plan_->rank_plan(r).configured && !failures_.is_dead(r)) {
          KYLIX_CHECK_MSG(st_.dies_at[r] > slot_,
                          "async streams do not support mid-stream revival");
        } else {
          st_.dies_at[r] = std::min(st_.dies_at[r], slot_);
        }
      }
    }
    void on_message(const MsgEvent& event) override {
      if (std::exchange(repeat_, false)) return;  // a duplicate's 2nd charge
      letter_ = event.src == src_ ? letter_ + 1
                                  : ex_.letters(slot_, event.src).first;
      src_ = event.src;
      KYLIX_DCHECK(ex_.sends_[letter_].dst == event.dst);
    }
    void on_drop(const MsgEvent&) override { st_.fates[letter_] = Fate::kLost; }
    void on_fault(const MsgEvent&, FaultAction action) override {
      repeat_ = action == FaultAction::kDuplicate;
      st_.fates[letter_] = repeat_ ? Fate::kDuplicated : Fate::kLost;
    }

   private:
    static constexpr rank_t kNoSender = std::numeric_limits<rank_t>::max();
    const AsyncExecutor& ex_;
    Stream& st_;
    const FailureModel& failures_;
    std::size_t rounds_ = 0;
    std::size_t slot_ = 0;
    rank_t src_ = kNoSender;
    std::size_t letter_ = 0;
    bool repeat_ = false;
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
  [[nodiscard]] std::size_t free_lane() const {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i].stream == kNoStream) return i;
    }
    return kNoLane;
  }

  /// Schedule indices [first, last) of rank q's letters in slot t.
  [[nodiscard]] std::pair<std::size_t, std::size_t> letters(std::size_t t,
                                                            rank_t q) const {
    const std::size_t k = t * ranks_ + q;
    return {first_[k], first_[k + 1]};
  }
  [[nodiscard]] static bool dead(const Stream& st, rank_t r, std::size_t t) {
    return !st.dies_at.empty() && st.dies_at[r] <= t;
  }
  [[nodiscard]] static Fate fate(const Stream& st, std::size_t i) {
    return st.fates.empty() ? Fate::kArrives : st.fates[i];
  }

  /// Freeze the plan's letter schedule for this value type, stride and
  /// chunk size in the order the Wire sees it — slot, sending rank, group
  /// digit, chunk — and derive the admission pace from it: the modeled tx
  /// occupancy one clean stream puts on its busiest NIC in one slot.
  /// Admitting streams faster than this cannot raise throughput (the
  /// bottleneck NIC is already saturated) but does synchronize the lanes
  /// into slot convoys — every lane's slot-s burst queues ahead of every
  /// lane's slot-s+1, so all lanes think (and leave the NICs idle) at the
  /// same time. Pacing staggers them into a software pipeline instead.
  void build_schedule() {
    const ReplayContext ctx = ReplayOps<V, Op>::context(
        *plan_, opts_.stride, opts_.streaming, opts_.chunk_bytes_override);
    const NetworkModel* net = opts_.network;
    sends_.clear();
    first_.clear();
    pace_ = 0;
    for (std::size_t t = 0; t < slots_; ++t) {
      const bool down = t < layers_;
      const Phase phase = down ? Phase::kReduceDown : Phase::kReduceUp;
      const std::size_t layer = down ? t + 1 : slots_ - t;
      for (rank_t q = 0; q < ranks_; ++q) {
        first_.push_back(sends_.size());
        const RankPlan& rp = plan_->rank_plan(q);
        if (!rp.configured) continue;
        const PlanLayer& cfg = rp.layers[layer - 1];
        double tx = 0;
        for (std::uint32_t d = 0; d < cfg.group.size(); ++d) {
          const std::size_t piece = cfg.piece(phase, d);
          for (std::uint32_t c = 0; c < ctx.chunks(piece); ++c) {
            const std::uint64_t values =
                std::uint64_t{ctx.chunk_length(piece, c)} * opts_.stride;
            const std::uint64_t payload = sizeof(V) * values;
            const Send s{cfg.group[d],
                         wire_frames(payload) * kPacketHeaderBytes + payload,
                         static_cast<double>(values)};
            if (net != nullptr && s.dst != q) {  // loopback skips the NIC
              tx += net->stack_overhead_s +
                    static_cast<double>(s.bytes) / net->bandwidth_bytes_per_s;
            }
            sends_.push_back(s);
          }
        }
        pace_ = std::max(pace_, tx);
      }
    }
    first_.push_back(sends_.size());
  }

  /// Replay one stream into `st`: results and StreamStats, plus FaultStats,
  /// fates and death slots for a faulted one. Throws (leaving `st` unused)
  /// on bad input or a mid-stream revival.
  void replay(Stream& st, std::vector<std::vector<V>> values,
              FaultPlan* faults) {
    st.faults = FaultStats{};
    st.fates.clear();
    st.dies_at.clear();
    if (faults == nullptr) {
      st.results = executor_.reduce_strided(std::move(values), opts_.stride);
    } else {
      st.fates.assign(sends_.size(), Fate::kArrives);
      st.dies_at.assign(ranks_, slots_);
      FaultChannel<V> channel(faults);
      FateLog log(*this, st, faults->failures());
      struct Detach {  // on every exit, the throwing ones included
        explicit Detach(ParallelBspEngine<V>& e) : engine(e) {}
        Detach(const Detach&) = delete;
        ~Detach() {
          engine.set_fault_channel(nullptr);
          engine.set_observer(nullptr);
        }
        ParallelBspEngine<V>& engine;
      } detach(*engine_);
      engine_->set_fault_channel(&channel);
      engine_->set_observer(&log);
      st.results = executor_.reduce_strided(std::move(values), opts_.stride);
      st.faults = faults->stats();
    }
    st.stats = executor_.stream_stats();
  }

  /// Admit the next queued stream to lane `lane_id` at modeled time `now`:
  /// count the letters each box awaits, restart every node and schedule it.
  void admit(std::size_t lane_id, double now) {
    now = std::max(now, next_admit_);
    next_admit_ = now + pace_;
    const std::uint32_t tag =
        stream_base_ + static_cast<std::uint32_t>(admitted_++);
    Lane& lane = lanes_[lane_id];
    KYLIX_CHECK(lane.stream == kNoStream);
    lane.stream = tag;
    lane.done_nodes = 0;
    lane.finish_time = now;
    Stream& st = streams_[tag - stream_base_];
    st.admit_time = now;
    std::fill(lane.nodes.begin(), lane.nodes.end(), Node{now});
    std::fill(lane.boxes.begin(), lane.boxes.end(), Box{});
    for (std::size_t t = 0; t < slots_; ++t) {
      for (rank_t q = 0; q < ranks_; ++q) {
        if (dead(st, q, t)) continue;  // a dead rank sends nothing
        const auto [first, last] = letters(t, q);
        for (std::size_t i = first; i < last; ++i) {
          if (fate(st, i) != Fate::kLost) {
            ++lane.boxes[sends_[i].dst * slots_ + t].pending;
          }
        }
      }
    }
    for (rank_t r = 0; r < ranks_; ++r) {
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

  void push_ready(Ready item) {
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  /// Walk one node as far as its boxes allow, then park or retire it.
  /// Mirrors the barriered protocol: a rank dead at a slot neither sends
  /// nor consumes in it, and the bottom gather follows the last down
  /// consume, before the first up slot's crashes can fire.
  void step_node(std::uint32_t lane_id, rank_t rank) {
    Lane& lane = lanes_[lane_id];
    const Stream& st = streams_[lane.stream - stream_base_];
    Node& node = lane.nodes[rank];
    for (; node.slot < slots_; ++node.slot, node.sent = false) {
      if (!node.sent) {
        if (dead(st, rank, node.slot)) break;
        send(lane, lane_id, st, rank);
        node.sent = true;
      }
      const Box& box = lane.boxes[rank * slots_ + node.slot];
      if (box.pending != 0) return;  // parked until the box completes
      // The NodeWork ReplayOps charges for this slot: every produced value
      // as a gather, every value a down consume scatter-combines.
      NodeWork work;
      const auto [first, last] = letters(node.slot, rank);
      for (std::size_t i = first; i < last; ++i) {
        work.gather_elements += sends_[i].elements;
      }
      work.combine_elements = box.combine;
      charge(node, box, work);
      if (node.slot + 1 == layers_) {
        NodeWork gather;  // the bottom gather, charged to the same slot
        gather.gather_elements =
            static_cast<double>(plan_->rank_plan(rank).bottom_map.size());
        charge(node, box, gather);
      }
    }
    retire_node(lane, lane_id, rank);
  }

  /// Put one node's letters for its slot on the modeled wire, in produce
  /// order at the node's clock. Every letter occupies its sender's NIC (a
  /// duplicate twice); one that arrives lands in its destination's box, and
  /// the letter completing a box wakes the node parked on it.
  void send(Lane& lane, std::uint32_t lane_id, const Stream& st, rank_t src) {
    const NetworkModel* net = opts_.network;
    const std::size_t slot = lane.nodes[src].slot;
    const double now = lane.nodes[src].clock;
    const auto [first, last] = letters(slot, src);
    for (std::size_t i = first; i < last; ++i) {
      const Send& s = sends_[i];
      const Fate f = fate(st, i);
      double arrival = now;
      if (net != nullptr && s.dst != src) {
        // The NIC serializes stack traversal + serialization; handshake
        // and propagation ride as thread-hideable latency.
        const double copies = f == Fate::kDuplicated ? 2.0 : 1.0;
        const double transfer =
            copies * static_cast<double>(s.bytes) / net->bandwidth_bytes_per_s;
        const double duration = copies * net->stack_overhead_s + transfer;
        const double start = tx_line_[src].claim(now, duration);
        tx_busy_[src] += duration;
        arrival =
            start + duration + net->handshake_latency_s + net->base_latency_s;
      }
      if (f == Fate::kLost) continue;
      Box& box = lane.boxes[s.dst * slots_ + slot];
      box.ready = std::max(box.ready, arrival);
      if (slot < layers_) box.combine += s.elements;
      if (--box.pending == 0) wake(lane, lane_id, s.dst, slot, box.ready);
    }
  }

  /// A box completed: reschedule its rank if it is parked exactly there.
  /// A rank not yet at that slot finds the box complete when it arrives,
  /// and a box completes only once, so a woken rank is never pushed twice.
  void wake(const Lane& lane, std::uint32_t lane_id, rank_t dst,
            std::size_t slot, double ready) {
    const Node& node = lane.nodes[dst];
    if (!node.sent || node.slot != slot) return;
    push_ready({std::max(ready, node.clock), lane_id, dst});
  }

  /// One consume's charge on the modeled clock. Compute starts once the
  /// box's last letter arrived and serializes within a stream (the node
  /// clock carries it) but not across lanes: each in-flight stream replays
  /// on its own core. Only the NIC timelines are shared.
  void charge(Node& node, const Box& box, const NodeWork& work) const {
    if (opts_.network == nullptr) return;
    const double cost =
        opts_.compute == nullptr ? 0.0 : work.seconds(*opts_.compute);
    node.clock = std::max(node.clock, box.ready) + cost;
  }

  /// Node finished (or died). When it is the lane's last, close the stream
  /// and hand the lane to the next queued one.
  void retire_node(Lane& lane, std::uint32_t lane_id, rank_t rank) {
    lane.finish_time = std::max(lane.finish_time, lane.nodes[rank].clock);
    if (++lane.done_nodes < ranks_) return;
    const std::uint32_t tag = lane.stream;
    Stream& st = streams_[tag - stream_base_];
    st.finish_time = lane.finish_time;
    st.done = true;
    makespan_ = std::max(makespan_, st.finish_time);
    latencies_.push_back(st.finish_time - st.admit_time);
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
    if (admitted_ < stream_count_) admit(lane_id, lane.finish_time);
  }

  std::shared_ptr<const CollectivePlan> plan_;
  Options opts_;
  rank_t ranks_ = 0;
  std::uint16_t layers_ = 0;
  std::size_t slots_ = 0;  ///< 2 x layers: down 1..l, then up l..1

  /// The serial replay every stream's values come from.
  std::unique_ptr<ParallelBspEngine<V>> engine_;
  ReduceExecutor<V, Op, ParallelBspEngine<V>> executor_;

  /// The plan's letter schedule; first_[t * ranks_ + q] is where rank q's
  /// letters of slot t start (one extra entry closes the last range).
  std::vector<Send> sends_;
  std::vector<std::size_t> first_;
  double pace_ = 0;  ///< admission initiation interval (modeled s)

  std::vector<Lane> lanes_;
  std::vector<Ready> heap_;  ///< min-heap via push_heap/pop_heap
  std::vector<NicTimeline> tx_line_;  ///< per-rank NIC send timeline
  std::vector<double> tx_busy_;       ///< per-rank accumulated send time

  /// Stream table: slot i holds tag stream_base_ + i, and streams are
  /// admitted in tag order, the first admitted_ of them so far. reset()
  /// rebases and reuses the slots (and their vectors' capacity).
  std::vector<Stream> streams_;
  std::uint32_t stream_base_ = 0;
  std::size_t stream_count_ = 0;
  std::size_t admitted_ = 0;
  std::uint32_t next_stream_ = 0;
  std::size_t active_streams_ = 0;
  std::vector<double> latencies_;
  double makespan_ = 0;
  double next_admit_ = 0;  ///< earliest modeled time the next admit may use
  std::uint64_t epoch_ = 0;  ///< membership epoch for new submissions
};

}  // namespace kylix
