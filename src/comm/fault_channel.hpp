// FaultChannel — the one fault hook every delivery policy shares (chaos
// engine).
//
// Wraps a FaultPlan for a single engine instance: begin_round() fires the
// plan's scripted crash/revive events and collects previously-delayed
// letters that are due again, route() classifies one letter (stashing it on
// kDelay), classify_copy() classifies one physical copy for the policy that
// accounts per copy (ReplicaWire). The plain engine reaches route() through
// Wire, and both policies call these entry points at the same protocol
// positions of the one round loop, so fault semantics are identical
// everywhere:
//
//   kDrop      — the letter is lost; the sender already paid for it.
//   kDuplicate — delivered once, but the wire carried it twice (the engine
//                charges trace/timing for the extra copy). Consuming twice
//                would double-count sums, so this models TCP-level dedup.
//   kDelay     — the letter misses its round and is redelivered at the next
//                round with the same {phase, layer} signature at least
//                delay_rounds later — unless a fresh letter from the same
//                sender is already in the destination inbox, in which case
//                the stale copy is discarded (counted stale). The §V
//                replication layer instead treats a delayed copy as a lost
//                race (late copies are canceled) and recovers total losses.
//
// One channel serves one engine; it is not thread-safe by itself, and the
// engine calls it only from its sequential delivery stage.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "comm/packet.hpp"
#include "common/check.hpp"

namespace kylix {

template <typename V>
class FaultChannel {
 public:
  /// `plan` is not owned and must outlive the channel.
  explicit FaultChannel(FaultPlan* plan) : plan_(plan) {
    KYLIX_CHECK(plan != nullptr);
  }

  [[nodiscard]] FaultPlan& plan() { return *plan_; }
  [[nodiscard]] const FaultPlan& plan() const { return *plan_; }

  /// Round boundary: fire scripted node events, then stage every delayed
  /// letter whose {phase, layer} signature matches and whose due round has
  /// arrived into due() for the engine to drain after fresh delivery.
  void begin_round(Phase phase, std::uint16_t layer) {
    plan_->begin_round(phase, layer);
    due_.clear();
    const std::uint64_t now = plan_->current_round();
    for (std::size_t i = 0; i < delayed_.size();) {
      Delayed& d = delayed_[i];
      if (d.phase == phase && d.layer == layer && d.due_round <= now) {
        due_.push_back(std::move(d.letter));
        delayed_[i] = std::move(delayed_.back());
        delayed_.pop_back();
      } else {
        ++i;
      }
    }
  }

  /// Classify one letter about to be delivered. On kDelay the letter is
  /// moved into the channel; on every other action the caller keeps it.
  [[nodiscard]] FaultAction route(Phase phase, std::uint16_t layer,
                                  Letter<V>& letter) {
    if (letter.src == letter.dst) return FaultAction::kDeliver;  // loopback
    const FaultPlan::Decision d = plan_->classify(letter.src, letter.dst);
    if (d.action == FaultAction::kDelay) {
      delayed_.push_back(Delayed{phase, layer,
                                 plan_->current_round() + d.delay_rounds,
                                 std::move(letter)});
    }
    return d.action;
  }

  /// Copy-level classification for per-copy accounting engines; never takes
  /// ownership (a delayed copy simply loses the replica race).
  [[nodiscard]] FaultAction classify_copy(rank_t src, rank_t dst) {
    return plan_->classify(src, dst).action;
  }

  /// Delayed letters due in the round begin_round() last started. The
  /// engine's Wire moves deliverable entries out, counts each entry
  /// redelivered or stale, and clears the vector.
  [[nodiscard]] std::vector<Letter<V>>& due() { return due_; }

  void note_redelivered() { ++redelivered_; }
  void note_stale() { ++stale_; }

  [[nodiscard]] std::size_t pending_delayed() const { return delayed_.size(); }
  [[nodiscard]] std::uint64_t redelivered() const { return redelivered_; }
  [[nodiscard]] std::uint64_t stale() const { return stale_; }

 private:
  struct Delayed {
    Phase phase;
    std::uint16_t layer;
    std::uint64_t due_round;
    Letter<V> letter;
  };

  FaultPlan* plan_;
  std::vector<Delayed> delayed_;
  std::vector<Letter<V>> due_;
  std::uint64_t redelivered_ = 0;
  std::uint64_t stale_ = 0;
};

}  // namespace kylix
