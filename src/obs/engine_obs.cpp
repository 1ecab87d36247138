#include "obs/engine_obs.hpp"

#include <algorithm>
#include <string>

namespace kylix::obs {

namespace {

std::string round_name(Phase phase, std::uint16_t layer) {
  return std::string(phase_name(phase)) + "/L" + std::to_string(layer);
}

}  // namespace

TelemetryObserver::TelemetryObserver(SpanTracer* tracer, rank_t num_ranks,
                                     const Options& options)
    : tracer_(tracer),
      num_ranks_(num_ranks),
      opts_(options),
      send_bytes_(num_ranks, 0),
      send_msgs_(num_ranks, 0),
      recv_bytes_(num_ranks, 0),
      produce_us_(num_ranks, 0),
      offsets_us_(num_ranks, 0) {
  KYLIX_CHECK(num_ranks >= 1);
  if (tracer_ != nullptr) {
    for (rank_t r = 0; r < num_ranks_; ++r) {
      tracer_->set_track_name(r, "rank " + std::to_string(r));
    }
  }
  if (opts_.metrics != nullptr) {
    MetricsRegistry& m = *opts_.metrics;
    msg_counter_ = &m.counter("engine.messages");
    byte_counter_ = &m.counter("engine.wire_bytes");
    drop_counter_ = &m.counter("engine.dropped_messages");
    round_counter_ = &m.counter("engine.rounds");
    // 64 B .. 64 MB packets; sub-µs .. ~1 s rounds.
    packet_bytes_ =
        &m.histogram("engine.packet_bytes", exponential_bounds(64, 4, 11));
    round_seconds_ =
        &m.histogram("engine.round_seconds", exponential_bounds(1e-6, 10, 8));
    fault_dropped_ = &m.counter("engine.faults.dropped");
    fault_duplicated_ = &m.counter("engine.faults.duplicated");
    fault_delayed_ = &m.counter("engine.faults.delayed");
    rec_detections_ = &m.counter("engine.recovery.detections");
    rec_retries_ = &m.counter("engine.recovery.retries");
    rec_promotions_ = &m.counter("engine.recovery.promotions");
    rec_forced_ = &m.counter("engine.recovery.forced");
    rec_group_deaths_ = &m.counter("engine.recovery.group_deaths");
    redeliv_merged_ = &m.counter("engine.redelivery.merged");
    redeliv_stale_ = &m.counter("engine.redelivery.stale");
  }
}

void TelemetryObserver::on_round_begin(Phase phase, std::uint16_t layer) {
  round_bytes_ = 0;
  round_msgs_ = 0;
  std::fill(send_bytes_.begin(), send_bytes_.end(), 0);
  std::fill(send_msgs_.begin(), send_msgs_.end(), 0);
  std::fill(recv_bytes_.begin(), recv_bytes_.end(), 0);
  std::fill(produce_us_.begin(), produce_us_.end(), 0.0);
  round_start_us_ = now_us();
  if (opts_.recorder != nullptr) {
    FlightEvent e;
    e.kind = FlightEventKind::kRoundBegin;
    e.phase = phase;
    e.layer = layer;
    opts_.recorder->record(e);
  }
}

void TelemetryObserver::on_produce(rank_t rank, double seconds) {
  if (rank < num_ranks_) produce_us_[rank] = seconds * 1e6;
}

void TelemetryObserver::on_message(const MsgEvent& event) {
  round_bytes_ += event.bytes;
  ++round_msgs_;
  ++messages_;
  cum_bytes_ += event.bytes;
  if (event.src < num_ranks_) {
    send_bytes_[event.src] += event.bytes;
    send_msgs_[event.src] += 1;
  }
  if (event.dst < num_ranks_) recv_bytes_[event.dst] += event.bytes;
  if (msg_counter_ != nullptr) {
    msg_counter_->add(1);
    byte_counter_->add(event.bytes);
    packet_bytes_->observe(static_cast<double>(event.bytes));
  }
}

void TelemetryObserver::on_drop(const MsgEvent& event) {
  ++drops_;
  if (drop_counter_ != nullptr) drop_counter_->add(1);
  if (opts_.recorder != nullptr) {
    FlightEvent e;
    e.kind = FlightEventKind::kDrop;
    e.phase = event.phase;
    e.layer = event.layer;
    e.rank = event.src;
    e.src = event.src;
    e.dst = event.dst;
    e.bytes = event.bytes;
    opts_.recorder->record(e);
  }
}

void TelemetryObserver::on_fault(const MsgEvent& event, FaultAction action) {
  ++faults_;
  if (opts_.recorder != nullptr) {
    FlightEvent e;
    e.kind = FlightEventKind::kFault;
    e.phase = event.phase;
    e.layer = event.layer;
    e.rank = event.src;
    e.src = event.src;
    e.dst = event.dst;
    e.code = static_cast<std::uint32_t>(action);
    e.bytes = event.bytes;
    opts_.recorder->record(e);
  }
  if (msg_counter_ == nullptr) return;  // metrics off
  switch (action) {
    case FaultAction::kDrop:
      fault_dropped_->add(1);
      break;
    case FaultAction::kDuplicate:
      fault_duplicated_->add(1);
      break;
    case FaultAction::kDelay:
      fault_delayed_->add(1);
      break;
    case FaultAction::kDeliver:
      break;
  }
}

void TelemetryObserver::on_recovery(const RecoveryEvent& event) {
  ++recoveries_;
  if (opts_.recorder != nullptr) {
    FlightEvent e;
    e.kind = FlightEventKind::kRecovery;
    e.phase = event.phase;
    e.layer = event.layer;
    e.rank = event.dst;  // the requester drives recovery
    e.src = event.src;
    e.dst = event.dst;
    e.code = static_cast<std::uint32_t>(event.action);
    e.value = event.attempt;
    opts_.recorder->record(e);
  }
  if (msg_counter_ == nullptr) return;  // metrics off
  switch (event.action) {
    case RecoveryAction::kDetect:
      rec_detections_->add(1);
      break;
    case RecoveryAction::kRetry:
      rec_retries_->add(1);
      break;
    case RecoveryAction::kPromote:
      rec_promotions_->add(1);
      break;
    case RecoveryAction::kForce:
      rec_forced_->add(1);
      break;
    case RecoveryAction::kGroupDeath:
      rec_group_deaths_->add(1);
      break;
  }
}

void TelemetryObserver::on_redelivery(const MsgEvent& event, bool stale) {
  if (opts_.recorder != nullptr) {
    FlightEvent e;
    e.kind = stale ? FlightEventKind::kStaleDrop
                   : FlightEventKind::kRedelivered;
    e.phase = event.phase;
    e.layer = event.layer;
    e.rank = event.dst;  // surfaced in the destination's inbox
    e.src = event.src;
    e.dst = event.dst;
    e.bytes = event.bytes;
    opts_.recorder->record(e);
  }
  if (msg_counter_ == nullptr) return;  // metrics off
  if (stale) {
    redeliv_stale_->add(1);
  } else {
    redeliv_merged_->add(1);
  }
}

void TelemetryObserver::on_round_end(Phase phase, std::uint16_t layer) {
  if (round_counter_ != nullptr) round_counter_->add(1);
  const double end_us = now_us();
  const double dur_us = end_us - round_start_us_;
  if (round_seconds_ != nullptr) round_seconds_->observe(dur_us * 1e-6);
  if (opts_.recorder != nullptr) {
    FlightEvent e;
    e.kind = FlightEventKind::kRoundEnd;
    e.phase = phase;
    e.layer = layer;
    e.value = dur_us * 1e-6;
    e.bytes = round_bytes_;
    opts_.recorder->record(e);
  }
  if (opts_.watchdog != nullptr) {
    // A rank's produce time is when its letters left; ranks that sent
    // nothing stay silent.
    for (rank_t r = 0; r < num_ranks_; ++r) {
      offsets_us_[r] = send_msgs_[r] > 0 ? produce_us_[r] : 0.0;
    }
    opts_.watchdog->observe_round(phase, layer, dur_us * 1e-6, offsets_us_,
                                  send_bytes_);
  }
  if (tracer_ == nullptr) {
    return;
  }
  const std::string name = round_name(phase, layer);
  for (rank_t r = 0; r < num_ranks_; ++r) {
    // Dead or silent ranks leave an empty track segment instead of a span.
    if (send_msgs_[r] == 0 && recv_bytes_[r] == 0) continue;
    tracer_->complete(name, r, round_start_us_, dur_us, /*has_args=*/true,
                      send_bytes_[r], send_msgs_[r]);
  }
  tracer_->counter("wire bytes", end_us, static_cast<double>(round_bytes_));
  if (phase == Phase::kReduceDown && opts_.topology != nullptr &&
      opts_.features > 0 && layer >= 1 &&
      layer <= opts_.topology->num_layers()) {
    // Round volume -> mean elements per node -> Prop 4.1 density estimate.
    const double m = static_cast<double>(opts_.topology->num_machines());
    const double elements =
        static_cast<double>(round_bytes_) / (opts_.bytes_per_element * m);
    double fan_in = 1;
    for (std::uint16_t i = 1; i < layer; ++i) {
      fan_in *= opts_.topology->degree(i);
    }
    const double density =
        elements * fan_in / static_cast<double>(opts_.features);
    tracer_->counter("density", end_us, density);
  }
}

void publish_stream_stats(MetricsRegistry& metrics, const StreamStats& stats) {
  metrics.counter("engine.stream.letters").add(stats.letters);
  metrics.counter("engine.stream.chunks_sent").add(stats.chunks);
  metrics.counter("engine.stream.blocks_flushed").add(stats.blocks_flushed);
  metrics.gauge("engine.stream.enabled").set(stats.streamed ? 1.0 : 0.0);
  metrics.gauge("engine.stream.chunk_bytes")
      .set(static_cast<double>(stats.chunk_bytes));
  metrics.gauge("engine.stream.max_chunks_per_letter")
      .set(static_cast<double>(stats.max_chunks_per_letter));
  metrics.gauge("engine.stream.overlap_ratio").set(stats.overlap_ratio());
  // The envelope the run actually needed: streamed replays are capped at
  // one in-flight chunk per in-edge, letter-at-once holds whole inboxes.
  metrics.gauge("engine.peak_buffer_bytes")
      .set(static_cast<double>(stats.streamed
                                   ? stats.peak_stream_buffer_bytes
                                   : stats.peak_letter_buffer_bytes));
  metrics.gauge("engine.stream.peak_letter_buffer_bytes")
      .set(static_cast<double>(stats.peak_letter_buffer_bytes));
}

}  // namespace kylix::obs
