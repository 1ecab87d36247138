// The barriered simulation engine, sequential or host-parallel — the one
// round loop every engine runs.
//
// One round = one communication layer of one phase, in four stages:
//
//   1. Pooled produce: rank r's letters are staged into outboxes_[r] in
//      production order. Workers touch only their own rank's node. While an
//      observer is attached, each alive rank's callback is timed into its
//      preallocated slot.
//   2. Sequential delivery in (rank, production) order through the delivery
//      policy: each rank's produce time goes to the observer's on_produce,
//      then its letters go out; settle() closes the stage. Trace events,
//      modeled timing, observer hooks and fault-plan RNG draws keep one
//      order at every thread count.
//   3. Pooled consume: each rank sorts its inbox by source (results never
//      depend on delivery order) and consumes it. charge_compute() calls
//      land in per-rank buffers.
//   4. Flush: the buffered charges reach the accumulator in ascending rank
//      order, so even floating-point accumulation order is fixed. A round
//      that throws drops its buffered charges instead.
//
// Only the delivery policy — the engine's base class — varies: Wire
// (comm/wire.hpp) for the plain engine, ReplicaWire for ReplicatedBsp
// (comm/replicated.hpp). A policy provides Wire's slots and stage hooks:
// begin_round/end_round, sync (rebuild what derives from the FailureModel
// before workers read it), for_each_machine (the machines that run a rank;
// compute, intra and produce times fan out to them), reserve_trace,
// deliver and settle. Every hook runs on the driving thread.
//
// Results, traces and timing reports are therefore bit-identical at every
// thread count; with one thread the pool runs both pooled stages inline
// and this is the sequential engine. Inboxes and outboxes persist across
// rounds, so letter shells keep their capacity and warm rounds allocate
// nothing.
//
// Scaling: the pool claims contiguous rank shards (one atomic per shard, not
// per rank), and debug sender checks reuse per-worker scratch indexed by
// ThreadPool::worker_id(). Stages that send no letters (intra_round: a
// replay's packs and combines around every round, the host tier, the
// bottom gather, finish_configure, set digests) run independent tasks
// across the pool — each writes only its own slots (a letter, a run of a
// rank's buffer, a node's plan slot; the timing accumulator preallocates
// per-rank slots), so no buffering or locking is needed there. They
// carry a replay's value work: its produce and consume callbacks only
// hand letters over and park the inbox. They run as balanced batches
// (ThreadPool::parallel_for_balanced), so a pool thread that wakes late
// or loses its CPU holds a stage up by one short shard; rounds keep one
// shard per thread.
//
// Node algorithms are produce/expected/consume callbacks (DESIGN.md
// decision 3); round(phase, layer, produce, expected, consume) calls, for
// each alive rank r,
//   produce(r)  -> std::vector<Letter<V>>   letters to send (self allowed)
//   expected(r) -> std::vector<rank_t>      ranks r awaits a letter from
//   consume(r, std::vector<Letter<V>>&&)    inbox sorted by src
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "comm/wire.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace kylix {

template <typename V, typename Delivery = Wire<V>>
class ParallelBspEngine : public Delivery {
 public:
  /// `threads` counts the calling thread (0 = hardware concurrency; 1 =
  /// sequential); all observer pointers are optional and not owned.
  explicit ParallelBspEngine(rank_t num_nodes, unsigned threads = 0,
                             const FailureModel* failures = nullptr,
                             Trace* trace = nullptr,
                             TimingAccumulator* timing = nullptr)
      : ParallelBspEngine(Delivery(num_nodes, failures, trace, timing),
                          threads) {}

  [[nodiscard]] unsigned num_threads() const { return pool_.num_threads(); }

  /// Outside a round (e.g. the bottom gather's charge) this forwards to
  /// the accumulator; during the pooled consume it buffers per rank.
  void charge_compute(Phase phase, std::uint16_t layer, rank_t rank,
                      double seconds) {
    if (this->timing() == nullptr) return;
    if (collecting_) {
      pending_compute_[rank].push_back(ComputeEvent{phase, layer, seconds});
    } else {
      compute_now(phase, layer, rank, seconds);
    }
  }

  /// Intra-tier charges always forward directly: the accumulator holds
  /// preallocated per-rank slots and a rank is charged by at most one
  /// intra_round task, so concurrent charges never alias.
  void charge_intra(Phase phase, rank_t rank, double seconds) {
    TimingAccumulator* timing = this->timing();
    if (timing == nullptr) return;
    this->for_each_machine(rank, [&](rank_t machine) {
      timing->on_intra(phase, machine, seconds);
    });
  }

  /// Any pooled stage with no letters: fn(0..num_tasks-1) across the
  /// pool. Tasks must be independent (a letter to fill, a run of a rank's
  /// buffer, a node's finish, a set digest); the caller keeps what must be
  /// serial on its own thread. No trace or observer events — nothing is on
  /// the wire. fn must skip dead ranks itself.
  template <typename Fn>
  void intra_round(Phase phase, rank_t num_tasks, Fn&& fn) {
    (void)phase;
    this->sync();
    pool_.parallel_for_balanced(
        num_tasks, [&](std::size_t t) { fn(static_cast<rank_t>(t)); });
  }

  template <typename ProduceFn, typename ExpectedFn, typename ConsumeFn>
  void round(Phase phase, std::uint16_t layer, ProduceFn&& produce,
             ExpectedFn&& expected, ConsumeFn&& consume) {
    const rank_t m = this->num_ranks();
    this->begin_round(phase, layer);
    EngineObserver* const observer = this->observer();
    // 1. Pooled produce into per-rank staging outboxes.
    pool_.parallel_for(m, [&](std::size_t r) {
      const rank_t rank = static_cast<rank_t>(r);
      auto& outbox = outboxes_[rank];
      outbox.clear();
      if (this->is_dead(rank)) return;
      const Clock::time_point start =
          observer != nullptr ? Clock::now() : Clock::time_point{};
      for (Letter<V>& letter : produce(rank)) {
        KYLIX_DCHECK(letter.src == rank);
        outbox.push_back(std::move(letter));
      }
      if (observer != nullptr) {
        produce_seconds_[rank] =
            std::chrono::duration<double>(Clock::now() - start).count();
      }
    });

    // 2. Sequential delivery in (rank, production) order. The staged
    // outboxes give the exact round size up front, so the trace can
    // reserve once instead of growing mid-round.
    std::size_t staged = 0;
    for (const auto& outbox : outboxes_) staged += outbox.size();
    this->reserve_trace(staged);
    for (auto& inbox : inboxes_) inbox.clear();
    for (rank_t rank = 0; rank < m; ++rank) {
      if (observer != nullptr && !this->is_dead(rank)) {
        this->for_each_machine(rank, [&](rank_t machine) {
          observer->on_produce(machine, produce_seconds_[rank]);
        });
      }
      for (Letter<V>& letter : outboxes_[rank]) {
        this->deliver(phase, layer, letter, inboxes_);
      }
    }
    this->settle(phase, layer, inboxes_, expected);

    // 3. Pooled consume; compute charges buffer per rank (one consumer per
    // rank, so the buffers are contention-free).
    TimingAccumulator* const timing = this->timing();
    collecting_ = timing != nullptr;
    try {
      pool_.parallel_for(m, [&](std::size_t r) {
        const rank_t rank = static_cast<rank_t>(r);
        if (this->is_dead(rank)) return;
        auto& inbox = inboxes_[rank];
        std::sort(inbox.begin(), inbox.end(), letter_before<V>);
#ifndef NDEBUG
        if (!inbox.empty()) {
          // Sanity: only expected senders may appear (sorted + binary
          // search). Per-worker scratch: no allocation once warm, no locks.
          const auto& want = expected(rank);  // may be a by-value temporary
          auto& senders = debug_senders_[ThreadPool::worker_id()];
          senders.assign(want.begin(), want.end());
          std::sort(senders.begin(), senders.end());
          for (const Letter<V>& letter : inbox) {
            KYLIX_DCHECK(std::binary_search(senders.begin(), senders.end(),
                                            letter.src));
          }
        }
#endif
        consume(rank, std::move(inbox));
      });
    } catch (...) {
      // A failed round charges nothing, and later charges land at once.
      collecting_ = false;
      for (auto& pending : pending_compute_) pending.clear();
      throw;
    }
    collecting_ = false;

    // 4. Flush buffered charges in ascending rank order: the per-slot
    // accumulation order of a sequential consume loop.
    if (timing != nullptr) {
      for (rank_t rank = 0; rank < m; ++rank) {
        for (const ComputeEvent& e : pending_compute_[rank]) {
          compute_now(e.phase, e.layer, rank, e.seconds);
        }
        pending_compute_[rank].clear();
      }
    }
    this->end_round(phase, layer);
  }

 protected:
  /// For engines on another delivery policy (ReplicatedBsp), which build
  /// the policy from their own constructor arguments.
  ParallelBspEngine(Delivery&& delivery, unsigned threads)
      : Delivery(std::move(delivery)),
        pool_(threads),
        outboxes_(this->num_ranks()),
        inboxes_(this->num_ranks()),
        pending_compute_(this->num_ranks()),
        produce_seconds_(this->num_ranks(), 0.0),
        debug_senders_(pool_.num_threads()) {}

 private:
  using Clock = std::chrono::steady_clock;

  struct ComputeEvent {
    Phase phase;
    std::uint16_t layer;
    double seconds;
  };

  void compute_now(Phase phase, std::uint16_t layer, rank_t rank,
                   double seconds) {
    TimingAccumulator* timing = this->timing();
    this->for_each_machine(rank, [&](rank_t machine) {
      timing->on_compute(phase, layer, machine, seconds);
    });
  }

  ThreadPool pool_;
  std::vector<std::vector<Letter<V>>> outboxes_;  ///< staged by produce
  std::vector<std::vector<Letter<V>>> inboxes_;   ///< reused across rounds
  std::vector<std::vector<ComputeEvent>> pending_compute_;
  std::vector<double> produce_seconds_;  ///< per rank; observer attached
  std::vector<std::vector<rank_t>> debug_senders_;  ///< per-worker scratch
  bool collecting_ = false;  ///< true only during the consume batch
};

}  // namespace kylix
