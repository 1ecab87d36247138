// Wire — the plain engine's delivery policy, and the slots every delivery
// policy shares, written once after mccl's single sendrecv layer under
// every collective. ParallelBspEngine calls the stage hooks below from its
// driving thread only; Wire is not thread-safe itself.
//
//   * The slots: the FailureModel, Trace, TimingAccumulator, EngineObserver
//     and FaultChannel an engine reports to, and the one rule by which an
//     engine without a FailureModel adopts its fault channel's.
//   * deliver() charges a letter to trace, timing and observer, drops it if
//     its destination is dead, else routes it through the FaultChannel
//     (whose header explains the fault actions); a duplicate is charged
//     twice.
//   * settle() brings delayed letters back at the next round with the same
//     {phase, layer}, or counts them stale.
//
// ReplicaWire (comm/replicated.hpp) derives from Wire for the slots and
// replaces the stage hooks with §V's per-copy transmit: sharing deliver()
// would make it branch on its caller. The async executor needs no path of
// its own: its streams replay through this Wire, and it reads each letter's
// fate off the observer hooks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/failure.hpp"
#include "cluster/timing.hpp"
#include "cluster/trace.hpp"
#include "comm/fault_channel.hpp"
#include "comm/packet.hpp"
#include "common/check.hpp"
#include "obs/observer.hpp"

namespace kylix {

template <typename V>
class Wire {
 public:
  /// All observer pointers are optional and not owned.
  Wire(rank_t num_nodes, const FailureModel* failures, Trace* trace,
       TimingAccumulator* timing)
      : num_nodes_(num_nodes),
        failures_(failures),
        trace_(trace),
        timing_(timing) {
    KYLIX_CHECK(num_nodes >= 1);
    KYLIX_CHECK_MSG(failures == nullptr || failures->num_nodes() >= num_nodes,
                    "FailureModel covers fewer ranks than the engine");
  }

  [[nodiscard]] rank_t num_ranks() const { return num_nodes_; }

  [[nodiscard]] bool is_dead(rank_t rank) const {
    return failures_ != nullptr && failures_->is_dead(rank);
  }

  /// Elastic membership: an unreplicated engine with any dead rank can only
  /// complete in degraded mode — there is no replica to recover the dead
  /// rank's exclusive keys from, so surviving nodes resolve them to the
  /// reduction identity (core/degraded.hpp) instead of aborting
  /// finish_configure(). Lets survivors re-plan around confirmed deaths.
  [[nodiscard]] bool has_failed() const {
    return failures_ != nullptr && failures_->num_dead() > 0;
  }
  [[nodiscard]] bool degraded_allowed() const { return true; }

  /// Telemetry hook (src/obs); optional and not owned, like trace/timing.
  void set_observer(EngineObserver* observer) { observer_ = observer; }

  /// Attach a chaos-engine fault channel (optional, not owned, one engine
  /// per channel). An engine built without a FailureModel reads the plan's,
  /// so scripted crashes take effect without extra plumbing; re-attaching
  /// switches to the new plan's model and detaching drops it.
  void set_fault_channel(FaultChannel<V>* channel) {
    KYLIX_CHECK_MSG(
        channel == nullptr || channel->plan().num_nodes() >= num_nodes_,
        "FaultPlan covers fewer ranks than the engine");
    channel_ = channel;
    if (adopted_) failures_ = nullptr;
    adopted_ = channel != nullptr && failures_ == nullptr;
    if (adopted_) failures_ = &channel->plan().failures();
  }

  /// Messages transmitted to dead destinations (sender paid, nothing
  /// arrived) since construction.
  [[nodiscard]] std::uint64_t dropped_messages() const { return dropped_; }

 protected:
  [[nodiscard]] const FailureModel* failures() const { return failures_; }
  [[nodiscard]] Trace* trace() const { return trace_; }
  [[nodiscard]] TimingAccumulator* timing() const { return timing_; }
  [[nodiscard]] EngineObserver* observer() const { return observer_; }
  [[nodiscard]] FaultChannel<V>* channel() const { return channel_; }

  /// Round begin: the fault plan's scripted crashes fire first, so a node
  /// killed "at" this round neither produces nor receives in it.
  void begin_round(Phase phase, std::uint16_t layer) {
    if (channel_ != nullptr) channel_->begin_round(phase, layer);
    if (observer_ != nullptr) observer_->on_round_begin(phase, layer);
  }

  void end_round(Phase phase, std::uint16_t layer) {
    if (observer_ != nullptr) observer_->on_round_end(phase, layer);
  }

  /// Nothing derived from the FailureModel to rebuild before a parallel
  /// stage: is_dead() reads the model itself.
  void sync() const {}

  /// The machines that run rank `rank`: just itself on a plain wire.
  template <typename Fn>
  void for_each_machine(rank_t rank, Fn&& fn) const {
    fn(rank);
  }

  /// Room in the trace for `letters` more sends.
  void reserve_trace(std::size_t letters) {
    if (trace_ != nullptr) trace_->reserve(letters);
  }

  /// Put one letter on the wire and into its destination's inbox if it
  /// arrives. It does not when its destination is dead or it was dropped,
  /// or it was delayed and now sits in the fault channel.
  void deliver(Phase phase, std::uint16_t layer, Letter<V>& letter,
               std::vector<std::vector<Letter<V>>>& inboxes) {
    if (send(phase, layer, letter)) {
      inboxes[letter.dst].push_back(std::move(letter));
    }
  }

  /// After fresh delivery, move every delayed letter due this round out of
  /// the channel. One whose destination is invalid or dead is stale, and so
  /// is one whose (sender, chunk) slot a fresh letter already filled this
  /// round — sibling chunks never supersede each other. The rest join
  /// their destination's inbox.
  template <typename ExpectedFn>
  void settle(Phase phase, std::uint16_t layer,
              std::vector<std::vector<Letter<V>>>& inboxes,
              ExpectedFn&& /*expected*/) {
    if (channel_ == nullptr) return;
    for (Letter<V>& letter : channel_->due()) {
      if (letter.dst >= num_nodes_ || is_dead(letter.dst)) {
        note_redelivery(phase, layer, letter, true);
        continue;
      }
      auto& inbox = inboxes[letter.dst];
      const bool stale =
          std::any_of(inbox.begin(), inbox.end(), [&](const Letter<V>& l) {
            return same_slot(l, letter);
          });
      note_redelivery(phase, layer, letter, stale);
      if (!stale) inbox.push_back(std::move(letter));
    }
    channel_->due().clear();
  }

 private:
  /// Charge one letter and decide whether it arrives (see deliver()).
  [[nodiscard]] bool send(Phase phase, std::uint16_t layer,
                          Letter<V>& letter) {
    KYLIX_CHECK_MSG(letter.dst < num_nodes_, "letter to invalid rank");
    const MsgEvent event{phase, layer, letter.src, letter.dst,
                         letter.packet.wire_bytes()};
    charge(event);
    if (is_dead(letter.dst)) {
      ++dropped_;
      if (observer_ != nullptr) observer_->on_drop(event);
      return false;
    }
    if (channel_ == nullptr) return true;
    const FaultAction action = channel_->route(phase, layer, letter);
    if (action == FaultAction::kDeliver) return true;
    if (observer_ != nullptr) observer_->on_fault(event, action);
    if (action != FaultAction::kDuplicate) return false;
    charge(event);  // the wire carried the letter twice
    return true;
  }

  void charge(const MsgEvent& event) {
    if (trace_ != nullptr) trace_->add(event);
    if (timing_ != nullptr) timing_->on_message(event);
    if (observer_ != nullptr) observer_->on_message(event);
  }

  void note_redelivery(Phase phase, std::uint16_t layer,
                       const Letter<V>& letter, bool stale) {
    stale ? channel_->note_stale() : channel_->note_redelivered();
    if (observer_ != nullptr) {
      observer_->on_redelivery(MsgEvent{phase, layer, letter.src, letter.dst,
                                        letter.packet.wire_bytes()},
                               stale);
    }
  }

  rank_t num_nodes_;
  const FailureModel* failures_;
  Trace* trace_;
  TimingAccumulator* timing_;
  EngineObserver* observer_ = nullptr;
  FaultChannel<V>* channel_ = nullptr;
  bool adopted_ = false;  ///< failures_ is the channel plan's model
  std::uint64_t dropped_ = 0;
};

}  // namespace kylix
