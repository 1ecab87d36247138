// The engine observer hook (DESIGN.md "Observability").
//
// Every engine already carries optional Trace / TimingAccumulator pointers;
// EngineObserver is the third — and last — slot of that pattern: a virtual
// interface the telemetry layer (src/obs) implements so the engines stay
// ignorant of metrics registries and span tracers. All hooks are no-ops by
// default; engines guard every call with a null check, so the hot path stays
// zero-allocation (and virtually call-free) when no observer is attached,
// exactly like the trace/timing slots (asserted by tests/core/alloc_test).
//
// Hook order within one engine round:
//   on_round_begin
//     -> per rank, in rank order: on_produce, then
//        {on_message | on_drop | on_fault}* for its letters
//     -> {on_redelivery | on_recovery}*  (recovery retries also fire
//        on_fault and on_message)
//     -> on_round_end
// Every engine runs ParallelBspEngine's round (comm/parallel.hpp), which
// calls every hook from its driving thread, so observers need no locking.
// ReplicatedBsp reports one on_message per transmitted *copy*, and
// on_produce once per alive replica, in physical ranks, mirroring what it
// records into the Trace.
#pragma once

#include <cstdint>

#include "cluster/fault_plan.hpp"
#include "cluster/trace.hpp"

namespace kylix {

/// What a recovery-capable engine (ReplicatedBsp) just did about a missing
/// letter or a dead replica group.
enum class RecoveryAction : std::uint8_t {
  kDetect = 0,      ///< a letter had no surviving on-time copy
  kRetry = 1,       ///< one re-request attempt went out
  kPromote = 2,     ///< a surviving replica served the letter
  kForce = 3,       ///< retries exhausted; reliable-path fallback delivered
  kGroupDeath = 4,  ///< an expected sender's whole replica group is dead
};

[[nodiscard]] constexpr const char* recovery_action_name(
    RecoveryAction action) {
  switch (action) {
    case RecoveryAction::kDetect:
      return "detect";
    case RecoveryAction::kRetry:
      return "retry";
    case RecoveryAction::kPromote:
      return "promote";
    case RecoveryAction::kForce:
      return "force";
    case RecoveryAction::kGroupDeath:
      return "group-death";
  }
  return "?";
}

struct RecoveryEvent {
  Phase phase = Phase::kConfig;
  std::uint16_t layer = 0;
  rank_t src = 0;  ///< logical sender (the dead group for kGroupDeath)
  rank_t dst = 0;  ///< logical receiver
  RecoveryAction action = RecoveryAction::kDetect;
  std::uint32_t attempt = 0;  ///< retry ordinal (1-based) where applicable
};

class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  /// A communication round (one phase × layer) is starting.
  virtual void on_round_begin(Phase phase, std::uint16_t layer) {
    (void)phase;
    (void)layer;
  }

  /// Rank `rank`'s produce callback took `seconds` of host time this round
  /// (its completion offset within the round: produce runs first, and the
  /// rank's letters go out as it returns). Fired only while an observer is
  /// attached — the engine reads no clock otherwise — once per alive rank.
  virtual void on_produce(rank_t rank, double seconds) {
    (void)rank;
    (void)seconds;
  }

  /// One message was put on the (simulated) wire.
  virtual void on_message(const MsgEvent& event) { (void)event; }

  /// A transmitted message was dropped (dead destination): the sender paid,
  /// nothing arrives.
  virtual void on_drop(const MsgEvent& event) { (void)event; }

  /// An injected fault hit this message copy (chaos engine; the matching
  /// on_message already fired). kDrop/kDelay copies never arrive; a
  /// kDuplicate copy arrives once but was charged twice.
  virtual void on_fault(const MsgEvent& event, FaultAction action) {
    (void)event;
    (void)action;
  }

  /// The replication layer detected / retried / recovered a missing letter,
  /// or noticed a dead replica group (see RecoveryAction).
  virtual void on_recovery(const RecoveryEvent& event) { (void)event; }

  /// A copy delayed in an earlier round surfaced in this round's inbox:
  /// merged as fresh input (`stale == false`) or superseded by a newer
  /// letter from the same sender and discarded (`stale == true`). Fired
  /// from Wire::settle alongside the channel's redelivered/stale
  /// accounting.
  virtual void on_redelivery(const MsgEvent& event, bool stale) {
    (void)event;
    (void)stale;
  }

  /// The round completed; every inbox has been consumed.
  virtual void on_round_end(Phase phase, std::uint16_t layer) {
    (void)phase;
    (void)layer;
  }
};

}  // namespace kylix
