// A persistent host thread pool with a parallel_for primitive.
//
// Built for the parallel simulation engine (comm/parallel.hpp): one pool per
// engine, woken once per produce/consume phase, so thread startup cost is
// paid once per engine instead of once per round. Work is claimed in
// contiguous *shards* — one atomic fetch_add per shard instead of per index
// — so a round over m ranks costs O(threads) synchronization, not O(m), and
// consecutive indices (whose node state is adjacent in memory) run on the
// same worker. The grain is ⌈n/threads⌉, so a batch has at most `threads`
// shards: a thread that finishes early finds another shard only if some
// thread has not yet woken to claim it. Skewed per-index costs are not
// rebalanced, and fewer shards than threads leave threads idle (4 tasks
// on 3 threads are two shards of two), so callers cut coarse work finer.
//
// parallel_for_balanced is for batches of many small independent tasks
// (a replay's stages, cut by letters and runs of union positions, so 4
// host leaders filling 42 letters each are 168 tasks): its grain is
// ⌈n / (kShardsPerThread × threads)⌉, and the batch closes once every
// shard is claimed, so it waits only for the workers that joined it. On
// a shared host a thread that wakes late, or loses its CPU mid-batch,
// then holds the batch up by one short shard instead of a third of it.
// parallel_for keeps one shard per thread and every worker's check-in,
// so each index runs on the same thread whenever all threads wake in
// time and what a task allocates stays in one thread's heap arena.
//
// Batch protocol: the caller publishes the loop body under the mutex, bumps
// a generation counter, opens the batch, and wakes every worker. A worker
// that wakes while the batch is open checks in (arrived, busy), claims
// shards until the counter is exhausted, and checks out (busy back to
// zero); one that wakes after it closed skips it. The caller participates
// in the batch itself, then waits until every worker has both arrived
// *and* finished (parallel_for), or closes the batch and waits for the
// workers that joined (parallel_for_balanced). Either way no straggler
// from batch N can observe state being written for batch N+1.
//
// Workers carry a stable id (worker_id(): caller = 0, spawned workers
// 1..threads-1) so engines can keep per-worker scratch without locks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace kylix {

class ThreadPool {
 public:
  /// `threads` counts the calling thread too: the pool spawns threads - 1
  /// workers. 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0) {
    if (threads == 0) {
      threads = std::thread::hardware_concurrency();
      if (threads == 0) threads = 1;
    }
    threads_ = threads;
    workers_.reserve(threads_ - 1);
    for (unsigned i = 1; i < threads_; ++i) {
      workers_.emplace_back([this, i] {
        tls_worker_id_ = i;
        serve_batches();
      });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      ++generation_;
    }
    start_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned num_threads() const { return threads_; }

  /// Stable id of the thread currently inside a parallel_for body: 0 for
  /// the calling thread, 1..num_threads()-1 for pool workers. Valid only
  /// inside a batch; lets callers index per-worker scratch without locks.
  [[nodiscard]] static unsigned worker_id() { return tls_worker_id_; }

  /// Run fn(0), …, fn(n - 1) across the pool; contiguous shards of indices
  /// are claimed dynamically, the calling thread participates, and the call
  /// returns only when every index has finished. The first exception thrown
  /// by any call is rethrown here (remaining indices still run to
  /// completion). Runs inline when the pool has one thread or n <= 1.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    run(n, std::forward<Fn>(fn), /*balanced=*/false);
  }

  /// parallel_for for many small independent tasks: a few shards per
  /// thread, and the call returns without waiting for workers that woke
  /// after every shard was claimed (see the header comment).
  template <typename Fn>
  void parallel_for_balanced(std::size_t n, Fn&& fn) {
    run(n, std::forward<Fn>(fn), /*balanced=*/true);
  }

 private:
  template <typename Fn>
  void run(std::size_t n, Fn&& fn, bool balanced) {
    if (n == 0) return;
    if (threads_ == 1 || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ctx_ = &fn;
      invoke_ = [](void* ctx, std::size_t i) {
        (*static_cast<std::remove_reference_t<Fn>*>(ctx))(i);
      };
      count_ = n;
      // One shard per worker wave (a few when balanced), at least 1:
      // claiming costs one atomic per shard, and equal contiguous shards
      // give affinity-stable placement when n is a multiple of the thread
      // count.
      const std::size_t shards =
          std::size_t{threads_} * (balanced ? kShardsPerThread : 1);
      grain_ = (n + shards - 1) / shards;
      next_.store(0, std::memory_order_relaxed);
      arrived_ = 0;
      busy_ = 0;
      open_ = true;
      ++generation_;
    }
    start_cv_.notify_all();
    tls_worker_id_ = 0;  // the caller is worker 0 inside its own batch
    run_batch();
    std::unique_lock<std::mutex> lock(mutex_);
    if (balanced) open_ = false;  // every shard is claimed
    done_cv_.wait(lock, [&] {
      return busy_ == 0 && (!open_ || arrived_ == workers_.size());
    });
    open_ = false;
    if (error_) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

  void serve_batches() {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        if (!open_) continue;  // woke after the caller closed the batch
        ++arrived_;
        ++busy_;
      }
      run_batch();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --busy_;
      }
      done_cv_.notify_all();
    }
  }

  void run_batch() {
    for (;;) {
      const std::size_t base = next_.fetch_add(grain_,
                                               std::memory_order_relaxed);
      if (base >= count_) return;
      const std::size_t end = std::min(count_, base + grain_);
      for (std::size_t i = base; i < end; ++i) {
        try {
          invoke_(ctx_, i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex_);
          if (!error_) error_ = std::current_exception();
        }
      }
    }
  }

  unsigned threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  ///< bumped per batch (and at shutdown)
  std::size_t arrived_ = 0;       ///< workers that woke for this batch
  std::size_t busy_ = 0;          ///< workers currently inside run_batch
  bool open_ = false;             ///< workers may still join this batch
  bool stop_ = false;

  /// Shards per thread of a balanced batch (see the header comment).
  static constexpr std::size_t kShardsPerThread = 4;

  std::atomic<std::size_t> next_{0};  ///< next unclaimed index
  std::size_t count_ = 0;   ///< batch size (read under happens-before)
  std::size_t grain_ = 1;   ///< shard length per claim
  void* ctx_ = nullptr;
  void (*invoke_)(void*, std::size_t) = nullptr;
  std::exception_ptr error_;

  inline static thread_local unsigned tls_worker_id_ = 0;
};

}  // namespace kylix
