// AsyncChannel — barrier-free letter transport for multiplexed replays
// (DESIGN §11).
//
// The barriered engines deliver inside round(): produce everything, apply
// faults, sort, consume everything. The async runtime has no such fence, so
// this channel gives every (lane, rank, slot) its own mailbox: a letter
// produced by a node two slots ahead of its peer simply parks in the peer's
// future-slot box until the peer gets there. A box "completes" when its
// arrived count reaches the expected count precomputed by the fault script;
// completion is the only wakeup condition the async executor needs.
//
// Fault-delay semantics without round barriers: the barriered engines
// redeliver a kDelay letter at the *next round with the same {phase,
// layer} signature* — which, within a single reduce, never recurs. A
// delayed letter therefore contributes nothing to the reduce it was sent
// in, on any engine; the script simply marks it undelivered (and the
// observer still sees the on_fault). This is what makes per-stream fault
// schedules replayable with no barrier to drain a delay queue at.
//
// The fault script is the async twin of FaultChannel: at stream admission
// the FaultPlan is replayed in the exact canonical order the barriered
// engines' Wire::send consults it (begin_round per slot; ranks ascending;
// letters in (digit, chunk) produce order; loopback and dead-destination
// copies never classified), freezing per-slot alive masks, per-letter
// fates, and per-box expected counts. Because classify() is a seeded
// sequential RNG, the frozen decisions are bit-identical to what a serial
// replay against an identically-configured FaultPlan would see — the fuzz
// suite asserts exactly that, fault stats included.
//
// Modeled clock: per-rank tx/rx NIC clocks shared by every in-flight
// stream. A send occupies the sender's NIC for stack_overhead +
// bytes/bandwidth (serializing, per NetworkModel's stack/handshake split),
// then lands after the thread-hideable handshake + propagation latency;
// receive occupancy is accounted but not serialized (see route()). This
// is where overlapping k streams wins: while one stream's nodes wait out
// latency, another stream's letters keep the NICs busy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "cluster/netmodel.hpp"
#include "comm/packet.hpp"
#include "common/check.hpp"
#include "core/async_node.hpp"
#include "core/plan.hpp"
#include "obs/observer.hpp"

namespace kylix {

/// What the fault script decided for one transmitted letter, in canonical
/// produce order. Splits FaultAction by outcome: a kFaultDup letter arrives
/// once but is charged twice; kDeadDrop never consulted the RNG.
enum class LetterFate : std::uint8_t {
  kDeliver = 0,
  kDeadDrop = 1,    ///< destination dead; sender paid, nothing arrives
  kFaultDrop = 2,   ///< classified kDrop
  kFaultDup = 3,    ///< classified kDuplicate (delivered once, paid twice)
  kFaultDelay = 4,  ///< classified kDelay (never redelivered in-stream)
};

/// A stream's frozen fault schedule: per-slot alive masks, expected letter
/// counts per destination, and per-letter fates in canonical produce order.
/// Clean streams share one script with empty fates (faulted == false).
struct AsyncFaultScript {
  struct Slot {
    std::vector<std::uint8_t> alive;       ///< per rank, after begin_round
    std::vector<std::uint32_t> expected;   ///< delivered letters per dst
    /// Per source rank: offset of its first letter's fate in `fates`.
    std::vector<std::uint32_t> fate_offset;
    std::vector<LetterFate> fates;  ///< canonical (src, digit, chunk) order
  };
  std::vector<Slot> slots;
  bool faulted = false;  ///< false: clean (fates empty, everyone alive)
  FaultStats stats;      ///< the plan's counters after the precompute

  [[nodiscard]] bool alive(std::size_t slot, rank_t r) const {
    return slots[slot].alive[r] != 0;
  }
};

/// Freeze one stream's fault schedule over the letters `ctx` replays.
/// `faults` may be null (clean stream: all alive, everything delivered, no
/// fates stored). With faults, the plan is consumed by this replay — hand
/// each stream its own identically-seeded FaultPlan, exactly as a serial
/// oracle run would. Scripted revivals mid-stream are rejected: with no
/// barrier there is no round at which a revived rank could rejoin the
/// protocol (matches the plain engines, where a mid-reduce revive corrupts
/// the replay state).
inline void build_async_fault_script(const ReplayContext& ctx,
                                     FaultPlan* faults,
                                     AsyncFaultScript& script) {
  const CollectivePlan& plan = *ctx.plan;
  const std::uint16_t layers = plan.topology().num_layers();
  const rank_t m = plan.num_ranks();
  const std::size_t slots = AsyncSlots::count(layers);
  script.slots.resize(slots);
  script.faulted = faults != nullptr;
  script.stats = FaultStats{};
  for (std::size_t t = 0; t < slots; ++t) {
    const Phase phase = AsyncSlots::phase(t, layers);
    const std::uint16_t layer = AsyncSlots::layer(t, layers);
    AsyncFaultScript::Slot& slot = script.slots[t];
    if (faults != nullptr) faults->begin_round(phase, layer);
    slot.alive.assign(m, 1);
    slot.expected.assign(m, 0);
    slot.fate_offset.assign(m, 0);
    slot.fates.clear();
    for (rank_t r = 0; r < m; ++r) {
      const bool dead =
          faults != nullptr && faults->failures().is_dead(r);
      slot.alive[r] = dead || !plan.rank_plan(r).configured ? 0 : 1;
      if (t > 0) {
        // Monotone deaths only: the async protocol has no round barrier a
        // revived rank could re-synchronize at.
        KYLIX_CHECK_MSG(slot.alive[r] <= script.slots[t - 1].alive[r],
                        "async streams do not support mid-stream revival");
      }
    }
    for (rank_t q = 0; q < m; ++q) {
      slot.fate_offset[q] = static_cast<std::uint32_t>(slot.fates.size());
      if (slot.alive[q] == 0) continue;
      const PlanLayer& cfg = plan.rank_plan(q).layers[layer - 1];
      for (std::uint32_t d = 0; d < cfg.group.size(); ++d) {
        const std::uint32_t chunks = ctx.chunks(cfg.piece(phase, d));
        const rank_t dst = cfg.group[d];
        for (std::uint32_t c = 0; c < chunks; ++c) {
          LetterFate fate = LetterFate::kDeliver;
          if (dst != q) {  // loopback copies are immune, like FaultChannel
            if (slot.alive[dst] == 0) {
              fate = LetterFate::kDeadDrop;
            } else if (faults != nullptr) {
              switch (faults->classify(q, dst).action) {
                case FaultAction::kDeliver:
                  fate = LetterFate::kDeliver;
                  break;
                case FaultAction::kDrop:
                  fate = LetterFate::kFaultDrop;
                  break;
                case FaultAction::kDuplicate:
                  fate = LetterFate::kFaultDup;
                  break;
                case FaultAction::kDelay:
                  fate = LetterFate::kFaultDelay;
                  break;
              }
            }
          }
          slot.fates.push_back(fate);
          if (fate == LetterFate::kDeliver ||
              fate == LetterFate::kFaultDup) {
            ++slot.expected[dst];
          }
        }
      }
    }
  }
  if (faults != nullptr) script.stats = faults->stats();
}

/// One modeled NIC direction as a work-conserving timeline of busy
/// intervals. A scalar free-clock NIC commits wire time in *claim* order —
/// which is node-step order, not virtual-time order — so one lane's burst
/// fences off wire time that another lane's earlier-in-virtual-time letter
/// could have used, and the in-flight streams convoy into slot waves that
/// leave the wire idle while every lane computes. First-fit gap claiming
/// models the NIC real hardware gives k independent send queues: a letter
/// departs in the earliest idle interval at or after its send time, no
/// matter which order the simulator happened to discover the sends in.
struct NicTimeline {
  /// Sorted, disjoint busy intervals [start, end).
  std::vector<std::pair<double, double>> busy;

  void clear() { busy.clear(); }

  /// Occupy the earliest `duration`-long idle window starting at or after
  /// `t`; returns the chosen start time.
  double claim(double t, double duration) {
    auto it = std::upper_bound(
        busy.begin(), busy.end(), t,
        [](double v, const std::pair<double, double>& iv) {
          return v < iv.second;
        });
    // `it` is the first interval ending after t: the candidate gap starts
    // at max(t, previous end) and must reach the next interval's start.
    double start = t;
    while (it != busy.end()) {
      if (start + duration <= it->first) break;  // fits before this interval
      start = std::max(start, it->second);
      ++it;
    }
    busy.insert(it, {start, start + duration});
    return start;
  }
};

/// The shared transport: per-(lane, rank, slot) mailboxes plus the modeled
/// NIC clocks. One channel serves every lane of one AsyncExecutor, whose
/// single event loop is its only caller (not thread-safe).
template <typename V>
class AsyncChannel {
 public:
  /// One mailbox: arrived letters (shells reused across streams), the
  /// script's expected count, and the modeled time the box completed.
  struct SlotBox {
    std::vector<Letter<V>> letters;
    std::uint32_t expected = 0;
    double ready_time = 0;
  };

  /// Size the mailboxes and clear the NIC clocks. `net` (optional) turns
  /// the modeled clock on; `observer` (optional) sees every letter.
  void configure(rank_t num_ranks, std::uint16_t layers, std::size_t lanes,
                 const NetworkModel* net, EngineObserver* observer) {
    num_ranks_ = num_ranks;
    net_ = net;
    observer_ = observer;
    slots_ = AsyncSlots::count(layers);
    boxes_.resize(lanes);
    for (auto& lane : boxes_) {
      lane.resize(std::size_t{num_ranks} * slots_);
    }
    tx_line_.resize(num_ranks);
    for (NicTimeline& line : tx_line_) line.clear();
    tx_busy_.assign(num_ranks, 0.0);
    rx_busy_.assign(num_ranks, 0.0);
  }

  /// Reset one lane's mailboxes for a new stream: expected counts from the
  /// stream's script, letter shells reserved once and reused.
  void open_lane(std::size_t lane, const AsyncFaultScript& script) {
    for (std::size_t t = 0; t < slots_; ++t) {
      for (rank_t r = 0; r < num_ranks_; ++r) {
        SlotBox& box = box_at(lane, r, t);
        box.letters.clear();
        box.expected = script.slots[t].expected[r];
        box.letters.reserve(box.expected);
        box.ready_time = 0;
      }
    }
  }

  [[nodiscard]] SlotBox& box_at(std::size_t lane, rank_t r, std::size_t t) {
    return boxes_[lane][std::size_t{r} * slots_ + t];
  }

  /// Route one produced batch from (lane, src, slot) at modeled `send_time`
  /// (ignored without a network model). Delivered letters move into their
  /// destination boxes; dropped/delayed letters keep their value buffers in
  /// the producer's shells (same recycling as the barriered engines).
  /// `on_ready(dst, ready_time)` fires for each box the batch completed.
  template <typename ReadyFn>
  void route(std::size_t lane, std::size_t slot, const AsyncFaultScript& script,
             std::uint16_t layers, std::vector<Letter<V>>& letters,
             double send_time, ReadyFn&& on_ready) {
    const AsyncFaultScript::Slot& sslot = script.slots[slot];
    const Phase phase = AsyncSlots::phase(slot, layers);
    const std::uint16_t layer = AsyncSlots::layer(slot, layers);
    std::uint32_t fate_index = 0;
    for (Letter<V>& letter : letters) {
      const std::uint64_t bytes = letter.packet.wire_bytes();
      LetterFate fate = LetterFate::kDeliver;
      if (script.faulted) {
        fate = sslot.fates[sslot.fate_offset[letter.src] + fate_index];
      }
      ++fate_index;
      if (observer_ != nullptr) {
        const MsgEvent event{phase, layer, letter.src, letter.dst, bytes};
        observer_->on_message(event);
        if (fate == LetterFate::kDeadDrop) {
          observer_->on_drop(event);
        } else if (fate != LetterFate::kDeliver) {
          observer_->on_fault(event, fate == LetterFate::kFaultDrop
                                         ? FaultAction::kDrop
                                         : fate == LetterFate::kFaultDup
                                               ? FaultAction::kDuplicate
                                               : FaultAction::kDelay);
          if (fate == LetterFate::kFaultDup) observer_->on_message(event);
        }
      }
      double arrival = send_time;
      double transfer = 0;
      if (net_ != nullptr && letter.src != letter.dst) {
        // The NIC serializes stack traversal + serialization; handshake
        // and propagation ride as thread-hideable latency.
        const double copies = fate == LetterFate::kFaultDup ? 2.0 : 1.0;
        transfer = copies * static_cast<double>(bytes) /
                   net_->bandwidth_bytes_per_s;
        const double duration = copies * net_->stack_overhead_s + transfer;
        const double start = tx_line_[letter.src].claim(send_time, duration);
        tx_busy_[letter.src] += duration;
        arrival =
            start + duration + net_->handshake_latency_s + net_->base_latency_s;
      }
      if (fate != LetterFate::kDeliver && fate != LetterFate::kFaultDup) {
        continue;  // buffer stays in the producer's shell for recycling
      }
      const rank_t dst = letter.dst;
      if (net_ != nullptr && letter.src != dst) {
        // Receive occupancy is accounted (for the utilization report) but
        // not serialized: letters are routed in sender-step order, not
        // arrival order, so a lazy claim-order rx clock would impose a
        // false FIFO that herds every in-flight stream toward the global
        // max arrival. Arrival is sender-NIC-serialized plus latency
        // (LogP-style); receive overhead is charged on the compute clock
        // when the box is consumed.
        rx_busy_[dst] += transfer;
      }
      SlotBox& box = box_at(lane, dst, slot);
      box.ready_time = std::max(box.ready_time, arrival);
      box.letters.push_back(std::move(letter));
      if (box.letters.size() == box.expected) {
        on_ready(dst, box.ready_time);
      }
    }
  }

  /// Sort a completed box by (src, chunk) — the barriered consume order —
  /// and hand it to the node; null while letters are still expected. The
  /// vector (and its shells) stays owned by the channel; the consume
  /// kernels strip only the value buffers.
  [[nodiscard]] std::vector<Letter<V>>* take_inbox(std::size_t lane, rank_t r,
                                                   std::size_t t) {
    SlotBox& box = box_at(lane, r, t);
    if (box.letters.size() != box.expected) return nullptr;
    std::sort(box.letters.begin(), box.letters.end(), letter_before<V>);
    return &box.letters;
  }

  /// Accumulated modeled NIC occupancy per rank since configure() — the
  /// utilization denominators for the async-overlap bench (busy / makespan
  /// shows how much of the recovered idle the overlap actually claimed).
  [[nodiscard]] const std::vector<double>& tx_busy_seconds() const {
    return tx_busy_;
  }
  [[nodiscard]] const std::vector<double>& rx_busy_seconds() const {
    return rx_busy_;
  }

 private:
  rank_t num_ranks_ = 0;
  std::size_t slots_ = 0;
  const NetworkModel* net_ = nullptr;
  EngineObserver* observer_ = nullptr;
  std::vector<std::vector<SlotBox>> boxes_;  ///< [lane][rank * slots + slot]
  std::vector<NicTimeline> tx_line_;  ///< per-rank NIC send timeline
  std::vector<double> tx_busy_;  ///< per-rank accumulated send occupancy
  std::vector<double> rx_busy_;  ///< per-rank accumulated receive occupancy
};

}  // namespace kylix
