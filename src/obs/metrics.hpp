// Lock-cheap metrics registry (DESIGN.md "Observability").
//
// Three instrument kinds, all safe to hammer from engine worker threads:
//   * Counter   — monotonically increasing uint64 (messages, drops, bytes);
//   * Gauge     — last-write-wins double (densities, speedups, config knobs);
//   * Histogram — fixed upper-bound buckets chosen at registration (packet
//                 sizes, round times). No rebinning, no allocation on
//                 observe(): one binary search + one relaxed increment.
//
// Registration (name lookup) takes a mutex; the returned references are
// stable for the registry's lifetime, so hot paths register once and then
// touch only atomics. Collection is globally toggled by the KYLIX_METRICS
// env var (mirroring KYLIX_LOG_LEVEL): "0"/"off"/"false" make every
// instrument a no-op while keeping registration and export working, so
// instrumented binaries can ship with telemetry compiled in but disabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"

namespace kylix::obs {

class JsonWriter;

class Counter {
 public:
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  void add(std::uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  const std::atomic<bool>* enabled_;
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  void set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }

  void add(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  /// A self-consistent point-in-time view: counts sum to count, taken with
  /// a bounded retry loop so concurrent observe() calls cannot leave the
  /// totals and the buckets disagreeing.
  struct Snapshot {
    std::vector<double> upper_bounds;  ///< finite bounds; +inf is implicit
    std::vector<std::uint64_t> counts;  ///< upper_bounds.size() + 1 entries
    std::uint64_t count = 0;
    double sum = 0;

    /// Interpolated quantile over this snapshot; see Histogram::quantile.
    [[nodiscard]] double quantile(double q) const;
  };

  /// `upper_bounds` must be strictly increasing; an implicit +inf bucket is
  /// appended, so counts() has upper_bounds.size() + 1 entries.
  Histogram(const std::atomic<bool>* enabled, std::vector<double> upper_bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return bounds_;
  }
  /// Snapshot of the per-bucket counts (last entry is the overflow bucket).
  [[nodiscard]] std::vector<std::uint64_t> counts() const;
  /// Consistent snapshot safe to take while observe() races (Σcounts is
  /// guaranteed to equal count).
  [[nodiscard]] Snapshot snapshot() const;
  /// Quantile q ∈ [0,1] with linear interpolation inside the landing
  /// bucket. The first bucket interpolates from 0 (observations are
  /// assumed nonnegative — bytes, seconds); the overflow bucket clamps to
  /// the last finite bound (the Prometheus convention). Empty -> 0.
  [[nodiscard]] double quantile(double q) const { return snapshot().quantile(q); }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

 private:
  const std::atomic<bool>* enabled_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> count_{0};
};

/// Exponential bucket boundaries start, start*factor, ... (count entries) —
/// the natural grid for packet sizes and round times.
[[nodiscard]] std::vector<double> exponential_bounds(double start,
                                                     double factor,
                                                     std::size_t count);

class MetricsRegistry {
 public:
  /// Collection starts enabled unless KYLIX_METRICS says otherwise.
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Instrument lookup-or-create; references stay valid for the registry's
  /// lifetime. A histogram re-registered under an existing name keeps its
  /// original bounds.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// {"counters":{...},"gauges":{...},"histograms":{...}} with names sorted.
  void write_json(std::ostream& out) const;
  /// Same object emitted through an in-flight writer (for embedding the
  /// registry inside a larger document, e.g. a postmortem dump).
  void write_json(JsonWriter& json) const;
  [[nodiscard]] std::string to_json() const;

  /// Process-wide registry for binaries that want one shared sink.
  static MetricsRegistry& global();

 private:
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;  ///< guards the maps, not the instruments
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace kylix::obs
