// TelemetryObserver — the EngineObserver that feeds the span tracer and the
// metrics registry from a live engine (DESIGN.md "Observability").
//
// Per round it accumulates per-rank send/receive bytes and message counts in
// pre-sized arrays (no allocation after construction; per-message work is a
// few array increments plus an optional histogram observe), then at round
// end emits:
//   * one span per participating rank on that rank's track, named
//     "<phase>/L<layer>" with bytes/messages args — the per-rank timeline;
//   * a "wire bytes" counter sample (this round's total volume);
//   * when a topology and feature count are supplied, a "density" counter
//     sample for scatter-reduce rounds: the measured per-node element count
//     converted through Proposition 4.1's D_i = P_i * K_i / n — the live
//     view of the Kylix shape.
// Metrics (optional): message/drop/byte counters and a packet-size
// histogram, all registered once at construction.
//
// Thread safety matches the engine contract: every hook arrives on the
// engine's driving thread, so none of this state is locked.
#pragma once

#include <cstdint>
#include <vector>

#include "common/timer.hpp"
#include "core/stream_stats.hpp"
#include "core/topology.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/span_tracer.hpp"
#include "obs/watchdog.hpp"

namespace kylix::obs {

class TelemetryObserver : public EngineObserver {
 public:
  struct Options {
    /// Enables the density counter track (needs features too).
    const Topology* topology = nullptr;
    /// Index-space size n; 0 disables the density track.
    std::uint64_t features = 0;
    /// Wire bytes per scatter-reduce element (value payload); used only to
    /// convert round volume back to elements for the density estimate.
    double bytes_per_element = 4;
    /// Optional metrics sink; counters/histograms register at construction.
    MetricsRegistry* metrics = nullptr;
    /// Optional flight recorder: round boundaries, drops, faults, recovery
    /// and redelivery land as structured events.
    FlightRecorder* recorder = nullptr;
    /// Optional watchdog fed per-round with wall time, per-rank produce
    /// times (on_produce) of the ranks that sent, and per-rank send volume.
    AnomalyWatchdog* watchdog = nullptr;
  };

  /// `tracer` may be null (metrics-only observation). `num_ranks` sizes the
  /// per-rank accumulators and track metadata.
  TelemetryObserver(SpanTracer* tracer, rank_t num_ranks,
                    const Options& options);
  TelemetryObserver(SpanTracer* tracer, rank_t num_ranks)
      : TelemetryObserver(tracer, num_ranks, Options{}) {}

  void on_round_begin(Phase phase, std::uint16_t layer) override;
  void on_produce(rank_t rank, double seconds) override;
  void on_message(const MsgEvent& event) override;
  void on_drop(const MsgEvent& event) override;
  void on_fault(const MsgEvent& event, FaultAction action) override;
  void on_recovery(const RecoveryEvent& event) override;
  void on_redelivery(const MsgEvent& event, bool stale) override;
  void on_round_end(Phase phase, std::uint16_t layer) override;

  [[nodiscard]] std::uint64_t total_messages() const { return messages_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return cum_bytes_; }
  [[nodiscard]] std::uint64_t total_drops() const { return drops_; }
  /// Injected faults seen (chaos engine), summed over drop/dup/delay.
  [[nodiscard]] std::uint64_t total_faults() const { return faults_; }
  /// Recovery events seen, summed over all RecoveryActions.
  [[nodiscard]] std::uint64_t total_recoveries() const { return recoveries_; }

 private:
  /// Microseconds on the tracer's clock when attached, else on an internal
  /// stopwatch — so round durations exist in metrics-only mode too.
  [[nodiscard]] double now_us() const {
    return tracer_ != nullptr ? tracer_->now_us() : clock_.seconds() * 1e6;
  }

  SpanTracer* tracer_;
  rank_t num_ranks_;
  Options opts_;
  Timer clock_;

  double round_start_us_ = 0;
  std::uint64_t round_bytes_ = 0;
  std::uint32_t round_msgs_ = 0;
  std::uint64_t cum_bytes_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t recoveries_ = 0;
  std::vector<std::uint64_t> send_bytes_;  ///< per rank, this round
  std::vector<std::uint32_t> send_msgs_;
  std::vector<std::uint64_t> recv_bytes_;
  std::vector<double> produce_us_;  ///< per rank, this round's on_produce
  std::vector<double> offsets_us_;  ///< watchdog scratch; 0 = silent rank

  // Registered-once metrics instruments (null when metrics are off).
  Counter* msg_counter_ = nullptr;
  Counter* byte_counter_ = nullptr;
  Counter* drop_counter_ = nullptr;
  Counter* round_counter_ = nullptr;
  Histogram* packet_bytes_ = nullptr;
  Histogram* round_seconds_ = nullptr;
  // Chaos-engine instruments: injected faults by action, recovery
  // state-machine transitions by action.
  Counter* fault_dropped_ = nullptr;
  Counter* fault_duplicated_ = nullptr;
  Counter* fault_delayed_ = nullptr;
  Counter* rec_detections_ = nullptr;
  Counter* rec_retries_ = nullptr;
  Counter* rec_promotions_ = nullptr;
  Counter* rec_forced_ = nullptr;
  Counter* rec_group_deaths_ = nullptr;
  Counter* redeliv_merged_ = nullptr;
  Counter* redeliv_stale_ = nullptr;
};

/// Publish one reduce's StreamStats (core/stream_stats.hpp) into a registry:
/// `engine.stream.*` counters (chunks sent, letters, blocks flushed) plus
/// the `engine.stream.overlap_ratio` and buffer-envelope gauges — notably
/// `engine.peak_buffer_bytes`, the streamed envelope when streaming was on
/// and the letter envelope otherwise. Counters accumulate across calls (one
/// call per reduce); gauges are last-write-wins.
void publish_stream_stats(MetricsRegistry& metrics, const StreamStats& stats);

}  // namespace kylix::obs
