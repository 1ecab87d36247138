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
// on 3 threads are two shards of two), so callers cut coarse work finer:
// 4 host folds of 8 slices each are shards of 11, 11 and 10 tasks.
//
// Batch protocol: the caller publishes the loop body under the mutex, bumps
// a generation counter, and wakes every worker. Each worker checks in
// (arrived), claims shards until the counter is exhausted, and checks out
// (busy back to zero). The caller participates in the batch itself, then
// waits until every worker has both arrived *and* finished — guaranteeing no
// straggler from batch N can observe state being written for batch N+1.
//
// Workers carry a stable id (worker_id(): caller = 0, spawned workers
// 1..threads-1) so engines can keep per-worker scratch without locks, and
// pin_workers() optionally binds each worker to a CPU (Linux) for
// affinity-stable placement across rounds.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

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

  /// Pin each spawned worker to a CPU (worker i -> cpu i mod ncpu) so rank
  /// shards keep their cache line ownership across rounds. Linux-only;
  /// silently a no-op elsewhere or when the affinity call fails (e.g.
  /// restricted cpusets). Call once, outside a batch.
  void pin_workers() {
#if defined(__linux__)
    const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET((i + 1) % ncpu, &set);
      (void)pthread_setaffinity_np(workers_[i].native_handle(), sizeof(set),
                                   &set);
    }
#endif
  }

  /// Run fn(0), …, fn(n - 1) across the pool; contiguous shards of indices
  /// are claimed dynamically, the calling thread participates, and the call
  /// returns only when every index has finished. The first exception thrown
  /// by any call is rethrown here (remaining indices still run to
  /// completion). Runs inline when the pool has one thread or n <= 1.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
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
      // One shard per worker wave, at least 1: claiming costs one atomic
      // per shard, and equal contiguous shards give affinity-stable
      // placement when n is a multiple of the thread count.
      grain_ = (n + threads_ - 1) / threads_;
      next_.store(0, std::memory_order_relaxed);
      arrived_ = 0;
      busy_ = 0;
      ++generation_;
    }
    start_cv_.notify_all();
    tls_worker_id_ = 0;  // the caller is worker 0 inside its own batch
    run_batch();
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock,
                  [this] { return arrived_ == workers_.size() && busy_ == 0; });
    if (error_) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

 private:
  void serve_batches() {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
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
  bool stop_ = false;

  std::atomic<std::size_t> next_{0};  ///< next unclaimed index
  std::size_t count_ = 0;   ///< batch size (read under happens-before)
  std::size_t grain_ = 1;   ///< shard length per claim
  void* ctx_ = nullptr;
  void (*invoke_)(void*, std::size_t) = nullptr;
  std::exception_ptr error_;

  inline static thread_local unsigned tls_worker_id_ = 0;
};

}  // namespace kylix
