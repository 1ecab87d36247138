// The concurrent engine: one std::thread per simulated machine.
//
// Same round() contract as ParallelBspEngine, but every node runs its
// produce/send/receive/consume cycle on its own thread with blocking
// mailboxes — real concurrency, real interleavings, opportunistic message
// arrival (§VI-B). Received letters are sorted by source before consume, so
// results are bit-identical to the barriered engine regardless of arrival
// order (asserted by tests/comm, which run both engines on the same inputs).
//
// Workers deliver through the same Wire as ParallelBspEngine, under the
// observer mutex: per-letter observer hooks fire there (round begin/end on
// the calling thread), and the fault plan's RNG is consumed in whatever
// order threads reach it — fault *placement* is scheduling-dependent here,
// fault *semantics* are not. This engine adds only what blocking receives
// need: tombstones for letters lost on their way to live ranks, per-rank
// staging of due delayed letters, and the worker threads. Replication
// racing is exercised by the Mailbox::take_any unit tests and ReplicatedBsp.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "comm/mailbox.hpp"
#include "comm/wire.hpp"
#include "common/check.hpp"

namespace kylix {

template <typename V>
class ThreadedBsp : protected Wire<V> {
 public:
  ThreadedBsp(rank_t num_nodes, const FailureModel* failures = nullptr,
              Trace* trace = nullptr, TimingAccumulator* timing = nullptr)
      : Wire<V>(num_nodes, failures, trace, timing),
        mailboxes_(num_nodes),
        due_by_rank_(num_nodes) {
    workers_.reserve(num_nodes);
    for (rank_t rank = 0; rank < num_nodes; ++rank) {
      workers_.emplace_back([this, rank] { serve_rank(rank); });
    }
  }

  ~ThreadedBsp() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    start_cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  ThreadedBsp(const ThreadedBsp&) = delete;
  ThreadedBsp& operator=(const ThreadedBsp&) = delete;

  using Wire<V>::num_ranks;
  using Wire<V>::is_dead;
  using Wire<V>::has_failed;
  using Wire<V>::degraded_allowed;
  using Wire<V>::set_observer;
  using Wire<V>::set_fault_channel;
  using Wire<V>::dropped_messages;

  /// Attribute modeled local compute to a rank within a round (thread-safe).
  void charge_compute(Phase phase, std::uint16_t layer, rank_t rank,
                      double seconds) {
    if (this->timing() == nullptr) return;
    std::lock_guard<std::mutex> lock(observer_mutex_);
    this->timing()->on_compute(phase, layer, rank, seconds);
  }

  /// Attribute modeled intra-node (shared-memory tier) time to a rank.
  /// Called from intra_round, which runs on the calling thread here, so no
  /// lock is needed (the per-rank worker threads are parked between rounds).
  void charge_intra(Phase phase, rank_t rank, double seconds) {
    if (auto* timing = this->timing()) timing->on_intra(phase, rank, seconds);
  }

  /// Intra-node stage of a hierarchical topology: runs sequentially on the
  /// calling thread. The per-rank worker threads model the *wire*, and the
  /// shared-memory tier has no wire traffic to interleave — a leader reads
  /// its co-located members' buffers directly (single copy, no Letters).
  template <typename Fn>
  void intra_round(Phase phase, rank_t num_hosts, Fn&& fn) {
    (void)phase;
    for (rank_t h = 0; h < num_hosts; ++h) fn(h);
  }

  template <typename ProduceFn, typename ExpectedFn, typename ConsumeFn>
  void round(Phase phase, std::uint16_t layer, ProduceFn&& produce,
             ExpectedFn&& expected, ConsumeFn&& consume) {
    // Scripted crashes fire on the calling thread before workers start, so
    // is_dead() is stable for the whole round. Due delayed letters are
    // staged per destination rank here; the generation handshake in
    // run_task() makes the staging visible to the workers.
    this->begin_round(phase, layer);
    this->take_due(phase, layer, [&](Letter<V>&& letter) {
      due_by_rank_[letter.dst].push_back(std::move(letter));
    });
    // Type-erase this round's work; each worker runs it for its own rank.
    task_ = [&, phase, layer](rank_t rank) {
      if (is_dead(rank)) return;
      for (Letter<V>& letter : produce(rank)) {
        KYLIX_DCHECK(letter.src == rank);
        post(phase, layer, std::move(letter));
      }
      std::vector<Letter<V>> inbox;
      for (rank_t src : expected(rank)) {
        if (is_dead(src)) continue;  // an unreplicated dead sender: no letter
        // A streamed edge carries chunk_count letters; how many is learned
        // from the first arrival (every chunk — tombstones included —
        // carries the full framing), so the receiver keeps taking until the
        // edge is drained. Letter-at-once edges degenerate to one take.
        std::uint32_t want = 1;
        for (std::uint32_t got = 0; got < want; ++got) {
          Letter<V> letter = mailboxes_[rank].take(src);
          want = std::max(want,
                          std::max<std::uint32_t>(
                              1, letter.packet.chunk_count));
          // Tombstones stand in for dropped/delayed copies (the sender
          // still paid); they only exist to unblock this take.
          if (!letter.faulted) inbox.push_back(std::move(letter));
        }
      }
      // A fresh letter for the same slot supersedes a staged delayed copy.
      auto& due = due_by_rank_[rank];
      if (!due.empty()) {
        std::lock_guard<std::mutex> lock(observer_mutex_);
        for (Letter<V>& letter : due) {
          this->redeliver(phase, layer, std::move(letter), inbox);
        }
        due.clear();
      }
      std::sort(inbox.begin(), inbox.end(), letter_before<V>);
      consume(rank, std::move(inbox));
    };
    run_task();
    this->end_round(phase, layer);
  }

 private:
  /// Send under the observer mutex (the Wire is not thread-safe). A letter
  /// lost on its way to a live rank leaves an empty tombstone in its place:
  /// the receiver blocks on take(src), and the kept chunk framing still
  /// counts toward the edge's chunk_count letters.
  void post(Phase phase, std::uint16_t layer, Letter<V>&& letter) {
    std::unique_lock<std::mutex> lock(observer_mutex_);
    const bool arrives = this->send(phase, layer, letter);
    lock.unlock();
    if (!arrives) {
      if (is_dead(letter.dst)) return;
      Letter<V> tombstone{letter.src, letter.dst, /*faulted=*/true, {}};
      tombstone.packet.chunk_index = letter.packet.chunk_index;
      tombstone.packet.chunk_count = letter.packet.chunk_count;
      letter = std::move(tombstone);
    }
    mailboxes_[letter.dst].put(std::move(letter));
  }

  void run_task() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_ = num_ranks();
      ++generation_;
    }
    start_cv_.notify_all();
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    if (worker_error_) {
      auto error = worker_error_;
      worker_error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

  void serve_rank(rank_t rank) {
    std::uint64_t seen_generation = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_cv_.wait(lock, [&] {
          return shutdown_ || generation_ > seen_generation;
        });
        if (shutdown_) return;
        seen_generation = generation_;
      }
      try {
        task_(rank);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!worker_error_) worker_error_ = std::current_exception();
      }
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        last = (--pending_ == 0);
      }
      if (last) done_cv_.notify_all();
    }
  }

  std::vector<Mailbox<V>> mailboxes_;
  /// Delayed letters due this round, staged per destination by the calling
  /// thread before the workers are released (run_task's mutex handshake
  /// publishes the staging); each worker drains only its own slot.
  std::vector<std::vector<Letter<V>>> due_by_rank_;
  std::vector<std::thread> workers_;
  std::function<void(rank_t)> task_;

  std::mutex mutex_;
  std::mutex observer_mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  rank_t pending_ = 0;
  bool shutdown_ = false;
  std::exception_ptr worker_error_;
};

}  // namespace kylix
