// Fingerprint-keyed LRU cache of compiled CollectivePlans.
//
// Minibatch workloads (§VI: SGD, LDA) revisit sparsity patterns: a recurring
// batch means recurring {in, out} key sets, and the expensive part of the
// step — the downward configuration pass — depends on nothing else. The
// cache keys plans by fingerprint_key_sets (per-set 8-lane digests of every
// rank's keys, chained in rank order — core/plan.hpp), salted by the
// compiling SparseAllreduce with its degree vector, cores and dead ranks,
// so a hit replaces configuration with one hash of the inputs plus a
// pointer copy.
//
// Hit/miss/evict counts feed both local counters (always on, for tests) and
// the obs::MetricsRegistry (plan_cache.hits / plan_cache.misses /
// plan_cache.evictions), registered once at construction so the hot path is
// a relaxed atomic add. A hit performs no heap allocation (asserted by
// tests/core/alloc_test): lookup is one unordered_map find plus a list
// splice, both allocation-free on a warm cache.
//
// Not thread-safe: one cache per driving thread, like SparseAllreduce.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>

#include "core/plan.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace kylix {

class PlanCache {
 public:
  /// `capacity` bounds retained plans (>= 1); the least recently used plan
  /// is evicted on overflow. `metrics` (not owned, may be null) receives the
  /// hit/miss/evict counters; defaults to the process-wide registry.
  explicit PlanCache(std::size_t capacity = 16,
                     obs::MetricsRegistry* metrics =
                         &obs::MetricsRegistry::global());

  /// Fingerprint of per-rank {in, out} key sets. SparseAllreduce salts it
  /// with its topology and dead ranks into the cache key, which the plan it
  /// compiles carries as CollectivePlan::fingerprint().
  [[nodiscard]] static std::uint64_t fingerprint(
      std::span<const KeySet> in_sets, std::span<const KeySet> out_sets) {
    return fingerprint_key_sets(in_sets, out_sets);
  }

  /// Look a plan up and mark it most recently used. Returns null on miss.
  [[nodiscard]] std::shared_ptr<const CollectivePlan> find(
      std::uint64_t fingerprint);

  /// Insert (or refresh) a plan under its own fingerprint, evicting the LRU
  /// entry when full. Plans with fingerprint 0 (anonymous) are not cached.
  void insert(std::shared_ptr<const CollectivePlan> plan);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  /// Attach a flight recorder (optional, not owned): every find() records a
  /// kPlanCacheHit/kPlanCacheMiss event carrying the fingerprint.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::shared_ptr<const CollectivePlan> plan;
  };

  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front == most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> entries_;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  obs::Counter* hit_counter_ = nullptr;    ///< registry-owned, may be null
  obs::Counter* miss_counter_ = nullptr;
  obs::Counter* evict_counter_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace kylix
