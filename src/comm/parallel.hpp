// The barriered simulation engine, sequential or host-parallel.
//
// One round = one communication layer of one phase, in three stages:
//
//   1. Parallel produce: rank r's letters are staged into outboxes_[r] in
//      production order. Workers touch only their own rank's node.
//   2. Sequential delivery: outboxes are drained in (rank, production) order
//      through Wire::send, then due delayed letters through
//      Wire::redeliver, so trace events, modeled timing, observer hooks and
//      fault-plan RNG draws keep one order at every thread count.
//   3. Parallel consume: each rank sorts its inbox by source (results never
//      depend on delivery order) and consumes it. charge_compute() calls
//      land in per-rank buffers, flushed in ascending rank order after the
//      batch, so even floating-point accumulation order is fixed.
//
// Results, traces and timing reports are therefore bit-identical at every
// thread count; with one thread the pool runs both parallel stages inline
// and this is the sequential engine. Inboxes and outboxes persist across
// rounds, so letter shells keep their capacity and warm rounds allocate
// nothing.
//
// Scaling: the pool claims contiguous rank shards (one atomic per shard, not
// per rank), debug sender checks reuse per-worker scratch indexed by
// ThreadPool::worker_id(), and pin_workers() optionally binds workers to
// CPUs so a rank's node state keeps its cache home across rounds. The
// hierarchical intra-node stage (intra_round) runs hosts across the pool —
// hosts are independent by construction (each leader touches only its own
// members' buffers, and the timing accumulator preallocates distinct
// per-rank slots), so no buffering or locking is needed there.
//
// Node algorithms are expressed as produce/expected/consume callbacks, which
// lets this engine, the replication wrapper, and the threaded engine drive
// the *same* algorithm code (DESIGN.md decision 3). Engine concept shared by
// ParallelBspEngine / ReplicatedBsp / ThreadedBsp:
//   rank_t num_ranks() const;
//   round(phase, layer, produce, expected, consume);
// where, for each alive rank r,
//   produce(r)  -> std::vector<Letter<V>>   letters to send (self allowed)
//   expected(r) -> std::vector<rank_t>      ranks r awaits a letter from
//   consume(r, std::vector<Letter<V>>&&)    inbox sorted by src
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "comm/wire.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace kylix {

template <typename V>
class ParallelBspEngine : protected Wire<V> {
 public:
  /// `threads` counts the calling thread (0 = hardware concurrency; 1 =
  /// sequential); all observer pointers are optional and not owned.
  explicit ParallelBspEngine(rank_t num_nodes, unsigned threads = 0,
                             const FailureModel* failures = nullptr,
                             Trace* trace = nullptr,
                             TimingAccumulator* timing = nullptr)
      : Wire<V>(num_nodes, failures, trace, timing),
        pool_(threads),
        outboxes_(num_nodes),
        inboxes_(num_nodes),
        pending_compute_(num_nodes),
        debug_senders_(pool_.num_threads()) {}

  using Wire<V>::num_ranks;
  using Wire<V>::is_dead;
  using Wire<V>::has_failed;
  using Wire<V>::degraded_allowed;
  using Wire<V>::set_observer;
  using Wire<V>::set_fault_channel;
  using Wire<V>::dropped_messages;

  [[nodiscard]] unsigned num_threads() const { return pool_.num_threads(); }

  /// Affinity-aware placement: bind each pool worker to a CPU so rank
  /// shards keep their cache home across rounds (Linux; no-op elsewhere).
  void pin_workers() { pool_.pin_workers(); }

  /// Outside a round (e.g. the begin_up charge) this forwards directly to
  /// the accumulator; during the parallel consume half it buffers per rank.
  void charge_compute(Phase phase, std::uint16_t layer, rank_t rank,
                      double seconds) {
    TimingAccumulator* timing = this->timing();
    if (timing == nullptr) return;
    if (collecting_) {
      pending_compute_[rank].push_back(ComputeEvent{phase, layer, seconds});
    } else {
      timing->on_compute(phase, layer, rank, seconds);
    }
  }

  /// Intra-tier charges always forward directly: the accumulator holds
  /// preallocated per-rank slots and each host's ranks are charged by
  /// exactly one intra_round worker, so concurrent charges never alias.
  void charge_intra(Phase phase, rank_t rank, double seconds) {
    if (auto* timing = this->timing()) timing->on_intra(phase, rank, seconds);
  }

  /// Intra-node stage of a hierarchical topology: hosts are mutually
  /// independent (a leader reduces only from its own members' buffers), so
  /// they run across the pool. No letters, trace, or observer events — the
  /// shared-memory tier has nothing on the wire to record. fn must skip
  /// dead ranks itself (it sees the member list; the engine only sees
  /// hosts here).
  template <typename Fn>
  void intra_round(Phase phase, rank_t num_hosts, Fn&& fn) {
    (void)phase;
    pool_.parallel_for(num_hosts,
                       [&](std::size_t h) { fn(static_cast<rank_t>(h)); });
  }

  template <typename ProduceFn, typename ExpectedFn, typename ConsumeFn>
  void round(Phase phase, std::uint16_t layer, ProduceFn&& produce,
             ExpectedFn&& expected, ConsumeFn&& consume) {
    const rank_t m = num_ranks();
    this->begin_round(phase, layer);
    // 1. Parallel produce into per-rank staging outboxes.
    pool_.parallel_for(m, [&](std::size_t r) {
      const rank_t rank = static_cast<rank_t>(r);
      auto& outbox = outboxes_[rank];
      outbox.clear();
      if (is_dead(rank)) return;
      for (Letter<V>& letter : produce(rank)) {
        KYLIX_DCHECK(letter.src == rank);
        outbox.push_back(std::move(letter));
      }
    });

    // 2. Sequential delivery in (rank, production) order. The staged
    // outboxes give the exact round size up front, so the trace can
    // reserve once instead of growing mid-round.
    std::size_t staged = 0;
    for (const auto& outbox : outboxes_) staged += outbox.size();
    this->reserve_trace(staged);
    for (auto& inbox : inboxes_) inbox.clear();
    for (auto& outbox : outboxes_) {
      for (Letter<V>& letter : outbox) {
        if (this->send(phase, layer, letter)) {
          inboxes_[letter.dst].push_back(std::move(letter));
        }
      }
    }
    this->take_due(phase, layer, [&](Letter<V>&& letter) {
      auto& inbox = inboxes_[letter.dst];
      this->redeliver(phase, layer, std::move(letter), inbox);
    });

    // 3. Parallel consume; compute charges buffer per rank (one consumer
    // per rank, so the buffers are contention-free).
    TimingAccumulator* timing = this->timing();
    collecting_ = timing != nullptr;
    pool_.parallel_for(m, [&](std::size_t r) {
      const rank_t rank = static_cast<rank_t>(r);
      if (is_dead(rank)) return;
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
          KYLIX_DCHECK(
              std::binary_search(senders.begin(), senders.end(), letter.src));
        }
      }
#else
      (void)expected;
#endif
      consume(rank, std::move(inbox));
    });
    collecting_ = false;

    // Flush buffered charges in ascending rank order: the per-slot
    // accumulation order of a sequential consume loop.
    if (timing != nullptr) {
      for (rank_t rank = 0; rank < m; ++rank) {
        for (const ComputeEvent& e : pending_compute_[rank]) {
          timing->on_compute(e.phase, e.layer, rank, e.seconds);
        }
        pending_compute_[rank].clear();
      }
    }
    this->end_round(phase, layer);
  }

 private:
  struct ComputeEvent {
    Phase phase;
    std::uint16_t layer;
    double seconds;
  };

  ThreadPool pool_;
  std::vector<std::vector<Letter<V>>> outboxes_;  ///< staged by produce
  std::vector<std::vector<Letter<V>>> inboxes_;   ///< reused across rounds
  std::vector<std::vector<ComputeEvent>> pending_compute_;
  std::vector<std::vector<rank_t>> debug_senders_;  ///< per-worker scratch
  bool collecting_ = false;  ///< true only during the consume batch
};

}  // namespace kylix
