// Online anomaly watchdog (DESIGN.md "Observability v2").
//
// Watches the round stream as it happens and flags three anomaly classes
// without storing history:
//   * slow rounds    — round wall time far above an EWMA baseline (mean +
//                      EWMA absolute deviation, robust to the baseline
//                      drifting as payloads change);
//   * stragglers     — a rank whose completion offset this round (its
//                      produce time, from the engine's on_produce) trails
//                      the median by many MADs *and* by an absolute floor
//                      (so microsecond jitter never fires);
//   * byte imbalance — a rank whose send volume sits many MADs off the
//                      round's median (skew the planner should know about).
// Verdicts land as `engine.anomaly.*` metrics and as structured
// FlightRecorder events, so a postmortem shows *when* the run went bad,
// not just that it did. All per-round work runs in pre-sized scratch
// (nth_element medians) — zero allocation after construction.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/trace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace kylix::obs {

class AnomalyWatchdog {
 public:
  struct Options {
    /// EWMA smoothing for the round-time baseline (mean and deviation).
    double ewma_alpha = 0.2;
    /// Rounds observed before any verdict is issued (baseline warmup).
    std::uint32_t min_samples = 8;
    /// Slow-round trigger: x - mean > slow_k * max(deviation, min_round_s).
    double slow_k = 6.0;
    double min_round_s = 1e-4;
    /// Straggler trigger: offset - median > straggler_k * max(MAD,
    /// min_mad_us) and offset - median > min_straggler_us.
    double straggler_k = 8.0;
    double min_mad_us = 50.0;
    double min_straggler_us = 5000.0;
    /// Byte-imbalance trigger, same shape over per-rank send bytes.
    double imbalance_k = 16.0;
    double min_imbalance_bytes = 65536.0;
    /// Sinks; either may be null.
    MetricsRegistry* metrics = nullptr;
    FlightRecorder* recorder = nullptr;
  };

  AnomalyWatchdog(rank_t num_ranks, const Options& options);

  /// Feed one finished round. `completion_offset_us[r]` is how far into
  /// the round rank r finished its work — TelemetryObserver passes its
  /// produce time — and is negative or zero for silent ranks;
  /// `send_bytes[r]` is what r put on the wire this round. Both must have
  /// num_ranks entries.
  void observe_round(Phase phase, std::uint16_t layer, double round_s,
                     const std::vector<double>& completion_offset_us,
                     const std::vector<std::uint64_t>& send_bytes);

  [[nodiscard]] std::uint64_t slow_rounds() const { return slow_rounds_; }
  [[nodiscard]] std::uint64_t stragglers() const { return stragglers_; }
  [[nodiscard]] std::uint64_t byte_imbalances() const {
    return byte_imbalances_;
  }
  /// Most recently flagged straggler rank, or kGlobalRank if none yet.
  [[nodiscard]] rank_t last_straggler() const { return last_straggler_; }
  [[nodiscard]] std::uint64_t rounds_seen() const { return rounds_seen_; }

 private:
  /// Median of `values` via nth_element into scratch_; MAD likewise.
  double median_into_scratch(const std::vector<double>& values);

  rank_t num_ranks_;
  Options opts_;

  // Round-time baseline.
  std::uint64_t rounds_seen_ = 0;
  double ewma_mean_s_ = 0;
  double ewma_dev_s_ = 0;

  std::uint64_t slow_rounds_ = 0;
  std::uint64_t stragglers_ = 0;
  std::uint64_t byte_imbalances_ = 0;
  rank_t last_straggler_ = kGlobalRank;

  std::vector<double> scratch_;   ///< pre-sized; medians
  std::vector<double> deviat_;    ///< pre-sized; abs deviations for MAD
  std::vector<double> active_;    ///< pre-sized; the round's active samples

  Counter* slow_counter_ = nullptr;
  Counter* straggler_counter_ = nullptr;
  Counter* imbalance_counter_ = nullptr;
  Gauge* last_straggler_gauge_ = nullptr;
};

}  // namespace kylix::obs
