// AsyncNode — one rank's resumable plan replay (DESIGN §11).
//
// The round-barriered drivers call one produce/consume pair per rank per
// round and rely on the engine's barrier to know every input has arrived.
// AsyncNode inverts that: each node counts through the reduce's 2l
// communication slots ({scatter-reduce down layers 1..l, then allgather up
// layers l..1}) and exposes step(), which advances as far as arrived letters
// allow and *parks* when its current slot's inbox is incomplete. The driver
// re-steps a node whenever new letters complete the slot it is parked on, so
// many streams interleave over the same channels with no global barrier
// anywhere.
//
// Per slot a node produces once, parks until the slot's box completes, and
// consumes; the bottom gather follows the consume of slot l-1. So the whole
// resume state is the slot counter plus whether this slot's letters went
// out. The kernel calls themselves are the shared ReplayOps
// (core/replay_node.hpp) — the same functions the serial executor runs in
// the same per-consume order, so an async stream's results are
// bit-identical to a serial replay of the same plan by construction.
//
// The Port concept supplies the node's environment (mailboxes, liveness,
// send): see core/async_executor.hpp for the driver-side implementation.
//
//   bool  alive(slot)              node may act in this slot (fault script)
//   void  send(slot, letters&)     route one produced batch (letters keep
//                                  their shells; values move to mailboxes)
//   std::vector<Letter<V>>* inbox(slot)   the complete box sorted by
//                                  letter_before, or null while incomplete
//   void  consumed(slot)           post-consume hook (compute charge,
//                                  spent-buffer return)
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/replay_node.hpp"

namespace kylix {

/// Slot arithmetic shared by the node, the engine's mailboxes, and the
/// fault-script precompute: the reduce's rounds in protocol order are
/// slot i-1   <- {kReduceDown, layer i},   i in [1, l]
/// slot 2l-i  <- {kReduceUp,   layer i},   i in [1, l]
struct AsyncSlots {
  static constexpr std::size_t count(std::uint16_t layers) {
    return 2u * std::size_t{layers};
  }
  static constexpr Phase phase(std::size_t slot, std::uint16_t layers) {
    return slot < layers ? Phase::kReduceDown : Phase::kReduceUp;
  }
  static constexpr std::uint16_t layer(std::size_t slot,
                                       std::uint16_t layers) {
    return slot < layers
               ? static_cast<std::uint16_t>(slot + 1)
               : static_cast<std::uint16_t>(2u * layers - slot);
  }
};

template <typename V, typename Op = OpSum>
class AsyncNode {
 public:
  /// Rebind this node to a (stream, rank) replay. The caller has already
  /// loaded the rank's contribution into scratch->v (ReplayOps::load_input)
  /// and cleared scratch->stream.
  void reset(const ReplayContext* ctx, rank_t rank,
             ReplayScratch<V>* scratch) {
    ctx_ = ctx;
    rank_ = rank;
    scratch_ = scratch;
    layers_ = ctx->plan->topology().num_layers();
    slot_ = 0;
    sent_ = false;
    dead_ = false;
  }

  /// Finished, or died; the result is in scratch.vin unless dead.
  [[nodiscard]] bool done() const {
    return dead_ || slot_ == AsyncSlots::count(layers_);
  }
  /// Died mid-stream (fault script); the result is empty, like the
  /// barriered engines' dead-rank handling.
  [[nodiscard]] bool dead() const { return dead_; }
  /// The slot this node acts in next (valid while !done()).
  [[nodiscard]] std::size_t slot() const { return slot_; }

  /// Advance until blocked or finished. Returns true when the node is done
  /// (the driver retires it); false means it is parked on slot() awaiting
  /// letters. Mirrors the barriered protocol exactly, including the
  /// liveness checks: a rank dead at a round neither produces nor consumes
  /// in it, and begin_up runs right after the last down consume — before
  /// the first up round's crashes can fire.
  template <typename Port>
  bool step(Port& port) {
    for (; !done(); ++slot_, sent_ = false) {
      const Phase phase = AsyncSlots::phase(slot_, layers_);
      const std::uint16_t layer = AsyncSlots::layer(slot_, layers_);
      if (!sent_) {
        if (!port.alive(slot_)) {
          dead_ = true;
          break;
        }
        port.send(slot_, Ops::produce(*ctx_, *scratch_, rank_, phase, layer));
        sent_ = true;
      }
      std::vector<Letter<V>>* inbox = port.inbox(slot_);
      if (inbox == nullptr) return false;
      Ops::consume(*ctx_, *scratch_, rank_, phase, layer, std::move(*inbox));
      port.consumed(slot_);
      if (slot_ + 1 == layers_) {
        // The bottom gather belongs to the last down round: it must run even
        // when the rank dies at the first up round (the barriered drivers
        // gather before that round's crash events fire).
        Ops::begin_up(*ctx_, *scratch_, rank_);
        port.consumed(slot_);  // charge the gather to the same slot
      }
    }
    return true;
  }

 private:
  using Ops = ReplayOps<V, Op>;

  const ReplayContext* ctx_ = nullptr;
  ReplayScratch<V>* scratch_ = nullptr;
  rank_t rank_ = 0;
  std::uint16_t layers_ = 0;
  std::size_t slot_ = 0;
  bool sent_ = false;  ///< slot_'s letters went out; parked on its box
  bool dead_ = false;
};

}  // namespace kylix
