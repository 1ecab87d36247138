// The §V replication layer: s-fold data replication with packet racing.
//
// A logical network of m nodes is mapped onto s·m physical machines; the
// data of logical node j lives on physical machines j, j+m, …, j+(s-1)m.
// Every message from logical j to logical k is transmitted by *each alive
// replica* of j to *each replica* of k (s copies per physical sender, s²
// per logical edge, the "per-node communication increases by s" worst case).
// A receiver listens to the whole replica group of the expected sender and
// uses the first copy that arrives, canceling the rest — so it pays receive
// cost for the winning copy only, while every transmitted copy costs its
// sender.
//
// Chaos engine (set_fault_channel): every physical copy is classified
// independently. A dropped copy is lost, a delayed copy loses its race (late
// copies are canceled, never redelivered), a duplicated copy arrives once
// but is charged twice. When *all* copies of a letter fault away while both
// replica groups still live, the receiver recovers it (RecoveryPolicy):
// bounded re-requests round-robin over surviving sender replicas, each
// attempt paying control headers and an escalating backoff stall, with a
// reliable-path fallback on the last attempt — so the protocol still
// completes bit-identically whenever no whole group is dead.
//
// When an entire replica group is dead (≈ √m failures at s = 2 by the
// birthday argument), nothing can be recovered: the engine records a
// DeathRecord per {phase, layer} in which an alive node expected the dead
// group, and the allreduce completes in degraded mode over surviving key
// ranges (core/degraded.hpp) instead of aborting.
//
// Replication changes only how each letter is delivered, so it is a
// delivery policy: ReplicaWire is a Wire over the s·m physical machines
// whose stage hooks transmit, race, recover and detect group deaths, and
// ReplicatedBsp runs ParallelBspEngine's one round loop on it, addressed in
// *logical* ranks — the identical node algorithm runs unmodified on top,
// across the engine's pool. Compute, intra and produce times fan out to a
// logical rank's alive replicas. Alive-replica lookups are cached and
// revalidated against FailureModel::version(), so steady-state rounds
// allocate nothing (tests/core/alloc_test); the cache is rebuilt on the
// driving thread before each pooled stage, so workers only read it.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/parallel.hpp"
#include "comm/recovery.hpp"
#include "comm/wire.hpp"
#include "common/check.hpp"

namespace kylix {

template <typename V>
class ReplicaWire : public Wire<V> {
 public:
  /// `failures`, `trace`, `timing` all address *physical* ranks in
  /// [0, logical_nodes * replication). Observers optional, not owned.
  ReplicaWire(rank_t logical_nodes, std::uint32_t replication,
              const FailureModel* failures, Trace* trace,
              TimingAccumulator* timing)
      : Wire<V>(logical_nodes * replication, failures, trace, timing),
        logical_(logical_nodes),
        replication_(replication) {}

  [[nodiscard]] rank_t num_ranks() const { return logical_; }
  [[nodiscard]] rank_t num_physical() const {
    return logical_ * replication_;
  }
  [[nodiscard]] std::uint32_t replication() const { return replication_; }

  /// Physical rank of replica r of logical node j.
  [[nodiscard]] rank_t physical(rank_t logical, std::uint32_t replica) const {
    return logical + replica * logical_;
  }

  /// Alive replicas of a logical node, in replica order. Returns a cached
  /// vector revalidated against FailureModel::version() — no allocation on
  /// the steady-state path.
  [[nodiscard]] const std::vector<rank_t>& alive_replicas(
      rank_t logical) const {
    refresh_alive();
    return alive_phys_[logical];
  }

  /// A logical node fails only when its whole replica group is dead.
  [[nodiscard]] bool is_dead(rank_t logical) const {
    refresh_alive();
    return alive_count_[logical] == 0;
  }

  /// True if any logical node has lost all replicas (the allreduce can only
  /// complete in degraded mode).
  [[nodiscard]] bool has_failed() const {
    refresh_alive();
    return dead_groups_ > 0;
  }

  /// Logical ranks whose whole replica group is currently dead (cold path).
  [[nodiscard]] std::vector<rank_t> dead_logical_ranks() const {
    refresh_alive();
    std::vector<rank_t> dead;
    for (rank_t j = 0; j < logical_; ++j) {
      if (alive_count_[j] == 0) dead.push_back(j);
    }
    return dead;
  }

  /// As Wire::set_fault_channel, over all num_physical() ranks; the alive
  /// cache follows an adopted model.
  void set_fault_channel(FaultChannel<V>* channel) {
    Wire<V>::set_fault_channel(channel);
    cache_built_ = false;
  }

  void set_recovery_policy(const RecoveryPolicy& policy) {
    KYLIX_CHECK(policy.max_attempts >= 1);
    policy_ = policy;
  }
  [[nodiscard]] const RecoveryPolicy& recovery_policy() const {
    return policy_;
  }

  /// §V-B racing outcomes since construction: a receiver consumes the first
  /// arriving copy (win) and cancels the rest (losses); copies addressed to
  /// dead physical receivers — or lost to injected drops — are drops, and
  /// injected delays count as canceled race losses.
  struct RaceStats {
    std::uint64_t wins = 0;
    std::uint64_t losses = 0;
    std::uint64_t drops = 0;
  };
  [[nodiscard]] const RaceStats& race_stats() const { return races_; }

  /// Copies transmitted to dead physical destinations since construction.
  [[nodiscard]] std::uint64_t dropped_messages() const { return races_.drops; }

  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return recovery_;
  }

  /// Replica groups observed fully dead while an alive node expected a
  /// letter from them, one record per distinct {phase, layer, group}.
  [[nodiscard]] const std::vector<DeathRecord>& death_records() const {
    return deaths_;
  }

  /// True if the group was already fully dead when the first round ran —
  /// its data never entered the reduction, so its loss is exactly the
  /// uncovered bottom keys rather than a partially-merged key range.
  [[nodiscard]] bool was_dead_at_start(rank_t logical) const {
    return snapshot_taken_ && dead_at_start_[logical];
  }

  [[nodiscard]] bool degraded_allowed() const {
    return policy_.degraded_completion;
  }

  /// Epoch barrier (elastic membership, cluster/membership.hpp): forget the
  /// previous epoch's degraded bookkeeping so post-heal DegradedReports
  /// describe only rounds run on the new plan. Groups still dead when the
  /// next round runs are re-snapshotted as dead-at-start — exactly what a
  /// fresh configure on the survivor set would see. Race/recovery wire
  /// counters keep accumulating across epochs; only loss attribution resets.
  void begin_epoch() {
    deaths_.clear();
    recovery_.group_deaths = 0;
    snapshot_taken_ = false;
  }

  /// The allreduce reports each logical rank's input mass Σ|v| here before
  /// the run, so lost_mass_fraction() can price a group death.
  void note_input_mass(rank_t logical, double mass) {
    if (input_masses_.size() < static_cast<std::size_t>(logical_)) {
      input_masses_.assign(logical_, 0.0);
    }
    input_masses_[logical] = mass;
  }

  /// Fraction of total input mass contributed by currently-dead groups
  /// (0 when masses were never reported). When the reported total is zero —
  /// every input key range lost, or all-identity inputs — a dead group still
  /// means the whole reduction is unrecoverable, so report 1.0 rather than
  /// dividing by zero.
  [[nodiscard]] double lost_mass_fraction() const {
    if (input_masses_.empty()) return 0.0;
    refresh_alive();
    double total = 0.0;
    double lost = 0.0;
    for (rank_t j = 0; j < logical_; ++j) {
      total += input_masses_[j];
      if (alive_count_[j] == 0) lost += input_masses_[j];
    }
    if (total > 0.0) return lost / total;
    return dead_groups_ > 0 ? 1.0 : 0.0;
  }

 protected:
  // ---- Stage hooks (see comm/parallel.hpp), all on the driving thread ----

  /// Groups dead before any round ran contribute nothing to the reduction;
  /// the snapshot lets the degraded report price them exactly. Taken before
  /// scripted crashes fire, so a crash at round 1 is mid-run.
  void begin_round(Phase phase, std::uint16_t layer) {
    if (!snapshot_taken_) snapshot_dead_at_start();
    Wire<V>::begin_round(phase, layer);
    refresh_alive();
    undelivered_.clear();
  }

  void sync() const { refresh_alive(); }

  /// Modeled work runs on every alive replica of the logical rank.
  template <typename Fn>
  void for_each_machine(rank_t logical, Fn&& fn) const {
    for (rank_t p : alive_replicas(logical)) fn(p);
  }

  /// §V transmit: every alive replica of the sender sends a copy to every
  /// replica of the receiver, and each receiver races what arrives.
  void deliver(Phase phase, std::uint16_t layer, Letter<V>& letter,
               std::vector<std::vector<Letter<V>>>& inboxes) {
    KYLIX_CHECK_MSG(letter.dst < logical_, "letter to invalid rank");
    const std::uint64_t bytes = letter.packet.wire_bytes();
    const std::vector<rank_t>& senders = alive_phys_[letter.src];
    KYLIX_DCHECK(!senders.empty());

    if (letter.src == letter.dst) {
      // Replicas run identical programs, so each already has its own copy
      // of a self-message: no wire traffic, and nothing to fault.
      inboxes[letter.dst].push_back(std::move(letter));
      return;
    }

    TimingAccumulator* const timing = this->timing();
    EngineObserver* const observer = this->observer();
    FaultChannel<V>* const channel = this->channel();
    bool delivered_anywhere = false;
    for (std::uint32_t r = 0; r < replication_; ++r) {
      const rank_t dst_phys = physical(letter.dst, r);
      const bool dst_dead = Wire<V>::is_dead(dst_phys);
      // Every alive sender replica transmits a copy (charged to it), even
      // to dead destinations. With a fault channel each copy is classified
      // independently; `arrived` counts copies that reach this receiver.
      std::uint64_t arrived = 0;
      for (rank_t src_phys : senders) {
        const MsgEvent event{phase, layer, src_phys, dst_phys, bytes};
        send_copy(event);
        if (dst_dead) {
          ++races_.drops;
          if (observer != nullptr) observer->on_drop(event);
          continue;
        }
        if (channel == nullptr) {
          ++arrived;
          continue;
        }
        switch (channel->classify_copy(src_phys, dst_phys)) {
          case FaultAction::kDeliver:
            ++arrived;
            break;
          case FaultAction::kDuplicate:
            // Arrives once, but the wire carried it twice.
            ++arrived;
            if (observer != nullptr) {
              observer->on_fault(event, FaultAction::kDuplicate);
            }
            send_copy(event);
            break;
          case FaultAction::kDrop:
            ++races_.drops;
            if (observer != nullptr) {
              observer->on_fault(event, FaultAction::kDrop);
              observer->on_drop(event);
            }
            break;
          case FaultAction::kDelay:
            // A late copy loses its race and is canceled, never redelivered
            // (the §V receiver has moved on); recovery handles total loss.
            ++races_.losses;
            if (observer != nullptr) {
              observer->on_fault(event, FaultAction::kDelay);
            }
            break;
        }
      }
      // The receiver races the surviving copies and pays for the winner.
      if (dst_dead || arrived == 0) continue;
      races_.wins += 1;
      races_.losses += arrived - 1;
      delivered_anywhere = true;
      if (timing != nullptr) timing->on_recv(phase, layer, dst_phys, bytes);
    }
    if (delivered_anywhere) {
      inboxes[letter.dst].push_back(std::move(letter));
    } else if (alive_count_[letter.dst] != 0) {
      // Every copy faulted away but the destination group lives: the
      // receivers noticed nothing arrived and will re-request (recover()).
      undelivered_.push_back(std::move(letter));
    }
    // A fully dead destination group: every copy was paid for and
    // dropped, and there is nothing to recover.
  }

  /// Recover the round's totally-lost letters, then record the dead groups
  /// an alive node expected a letter from.
  template <typename ExpectedFn>
  void settle(Phase phase, std::uint16_t layer,
              std::vector<std::vector<Letter<V>>>& inboxes,
              ExpectedFn&& expected) {
    if (!undelivered_.empty()) recover(phase, layer, inboxes);
    detect_group_deaths(phase, layer, expected);
  }

 private:
  /// One physical copy on the wire: traced, charged to its sender only (a
  /// racing receiver pays for its winning copy alone), and observed.
  void send_copy(const MsgEvent& event) {
    if (Trace* trace = this->trace()) trace->add(event);
    if (TimingAccumulator* timing = this->timing()) {
      timing->on_send(event.phase, event.layer, event.src, event.bytes);
    }
    if (EngineObserver* observer = this->observer()) {
      observer->on_message(event);
    }
  }

  /// Re-request each totally-lost letter from surviving sender replicas:
  /// bounded retries (control header each way + escalating backoff stall on
  /// the stalled receiver), reliable-path fallback on the last attempt.
  /// Sender groups are always alive here — crashes only fire at round
  /// begins, so whoever produced a letter survives the round.
  void recover(Phase phase, std::uint16_t layer,
               std::vector<std::vector<Letter<V>>>& inboxes) {
    Trace* const trace = this->trace();
    TimingAccumulator* const timing = this->timing();
    EngineObserver* const observer = this->observer();
    FaultChannel<V>* const channel = this->channel();
    for (Letter<V>& letter : undelivered_) {
      const std::vector<rank_t>& senders = alive_phys_[letter.src];
      const std::vector<rank_t>& receivers = alive_phys_[letter.dst];
      KYLIX_DCHECK(!senders.empty());
      KYLIX_DCHECK(!receivers.empty());
      const rank_t dst_phys = receivers.front();
      const std::uint64_t bytes = letter.packet.wire_bytes();
      ++recovery_.detections;
      if (observer != nullptr) {
        observer->on_recovery(RecoveryEvent{
            phase, layer, letter.src, letter.dst, RecoveryAction::kDetect, 0});
      }
      for (std::uint32_t attempt = 1; attempt <= policy_.max_attempts;
           ++attempt) {
        const rank_t src_phys = senders[(attempt - 1) % senders.size()];
        ++recovery_.retries;
        if (timing != nullptr) {
          timing->on_send(phase, layer, dst_phys, policy_.request_bytes);
          timing->on_recv(phase, layer, src_phys, policy_.request_bytes);
          timing->on_compute(phase, layer, dst_phys,
                             policy_.backoff.delay(attempt));
        }
        if (observer != nullptr) {
          observer->on_recovery(RecoveryEvent{phase, layer, letter.src,
                                              letter.dst,
                                              RecoveryAction::kRetry,
                                              attempt});
        }
        bool ok = true;
        if (channel != nullptr) {
          const FaultAction a = channel->classify_copy(src_phys, dst_phys);
          ok = a == FaultAction::kDeliver || a == FaultAction::kDuplicate;
          if (!ok && observer != nullptr) {
            // A fault ate this retry copy too — without this hook the
            // black box would show retries that silently went nowhere.
            observer->on_fault(MsgEvent{phase, layer, src_phys, dst_phys,
                                        bytes},
                               a);
          }
        }
        if (!ok && attempt == policy_.max_attempts) {
          // Retries exhausted: fall back to the reliable path (the
          // simulator's stand-in for TCP eventually delivering), so
          // recovery cannot fail while any replica lives.
          ok = true;
          ++recovery_.forced;
          if (observer != nullptr) {
            observer->on_recovery(RecoveryEvent{phase, layer, letter.src,
                                                letter.dst,
                                                RecoveryAction::kForce,
                                                attempt});
          }
        }
        if (!ok) continue;
        ++recovery_.promotions;
        const MsgEvent event{phase, layer, src_phys, dst_phys, bytes};
        if (trace != nullptr) trace->add(event);
        if (timing != nullptr) {
          timing->on_send(phase, layer, src_phys, bytes);
          timing->on_recv(phase, layer, dst_phys, bytes);
        }
        if (observer != nullptr) {
          observer->on_message(event);
          observer->on_recovery(RecoveryEvent{phase, layer, letter.src,
                                              letter.dst,
                                              RecoveryAction::kPromote,
                                              attempt});
        }
        inboxes[letter.dst].push_back(std::move(letter));
        break;
      }
    }
    undelivered_.clear();
  }

  /// Record every fully-dead replica group an alive node expected a letter
  /// from this round (once per distinct {phase, layer, group}).
  template <typename ExpectedFn>
  void detect_group_deaths(Phase phase, std::uint16_t layer,
                           ExpectedFn&& expected) {
    if (dead_groups_ == 0) return;
    for (rank_t j = 0; j < logical_; ++j) {
      if (alive_count_[j] == 0) continue;
      for (rank_t s : expected(j)) {
        if (s == j || s >= logical_ || alive_count_[s] != 0) continue;
        note_death(phase, layer, s, j);
      }
    }
  }

  void note_death(Phase phase, std::uint16_t layer, rank_t dead,
                  rank_t requester) {
    for (const DeathRecord& d : deaths_) {
      if (d.phase == phase && d.layer == layer && d.logical == dead) return;
    }
    KYLIX_CHECK_MSG(policy_.degraded_completion,
                    "replica group fully dead and degraded completion is "
                    "disabled (RecoveryPolicy)");
    deaths_.push_back(DeathRecord{phase, layer, dead});
    ++recovery_.group_deaths;
    if (EngineObserver* observer = this->observer()) {
      observer->on_recovery(RecoveryEvent{
          phase, layer, dead, requester, RecoveryAction::kGroupDeath, 0});
    }
  }

  void snapshot_dead_at_start() {
    refresh_alive();
    dead_at_start_.assign(logical_, false);
    for (rank_t j = 0; j < logical_; ++j) {
      dead_at_start_[j] = alive_count_[j] == 0;
    }
    snapshot_taken_ = true;
  }

  /// Rebuild the per-group alive cache iff the FailureModel changed (its
  /// version() bumps on every kill/revive). clear()+push_back keeps each
  /// vector's capacity, so even rebuilds stop allocating once warm.
  void refresh_alive() const {
    const FailureModel* failures = this->failures();
    const std::uint64_t version =
        failures == nullptr ? 0 : failures->version();
    if (cache_built_ && version == cache_version_) return;
    if (alive_phys_.size() != static_cast<std::size_t>(logical_)) {
      alive_phys_.resize(logical_);
      alive_count_.resize(logical_);
    }
    dead_groups_ = 0;
    for (rank_t j = 0; j < logical_; ++j) {
      auto& alive = alive_phys_[j];
      alive.clear();
      for (std::uint32_t r = 0; r < replication_; ++r) {
        const rank_t p = physical(j, r);
        if (!Wire<V>::is_dead(p)) alive.push_back(p);
      }
      alive_count_[j] = static_cast<std::uint32_t>(alive.size());
      if (alive.empty()) ++dead_groups_;
    }
    cache_version_ = version;
    cache_built_ = true;
  }

  rank_t logical_;
  std::uint32_t replication_;
  RecoveryPolicy policy_;
  RaceStats races_;
  RecoveryStats recovery_;
  std::vector<DeathRecord> deaths_;
  std::vector<double> input_masses_;
  std::vector<bool> dead_at_start_;
  bool snapshot_taken_ = false;

  // Alive cache, revalidated against FailureModel::version().
  mutable std::vector<std::vector<rank_t>> alive_phys_;
  mutable std::vector<std::uint32_t> alive_count_;
  mutable rank_t dead_groups_ = 0;
  mutable std::uint64_t cache_version_ = 0;
  mutable bool cache_built_ = false;

  std::vector<Letter<V>> undelivered_;  ///< reused across rounds
};

/// The §V engine: ParallelBspEngine's round on the replica policy.
/// `threads` means what it means there (0 = hardware concurrency).
template <typename V>
class ReplicatedBsp : public ParallelBspEngine<V, ReplicaWire<V>> {
 public:
  ReplicatedBsp(rank_t logical_nodes, std::uint32_t replication,
                const FailureModel* failures = nullptr,
                Trace* trace = nullptr, TimingAccumulator* timing = nullptr,
                unsigned threads = 0)
      : ParallelBspEngine<V, ReplicaWire<V>>(
            ReplicaWire<V>(logical_nodes, replication, failures, trace,
                           timing),
            threads) {}
};

}  // namespace kylix
