#include "obs/watchdog.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace kylix::obs {

AnomalyWatchdog::AnomalyWatchdog(rank_t num_ranks, const Options& options)
    : num_ranks_(num_ranks), opts_(options) {
  KYLIX_CHECK(num_ranks >= 1);
  KYLIX_CHECK(opts_.ewma_alpha > 0 && opts_.ewma_alpha <= 1);
  scratch_.reserve(num_ranks);
  deviat_.reserve(num_ranks);
  active_.reserve(num_ranks);
  if (opts_.metrics != nullptr) {
    MetricsRegistry& m = *opts_.metrics;
    slow_counter_ = &m.counter("engine.anomaly.slow_rounds");
    straggler_counter_ = &m.counter("engine.anomaly.stragglers");
    imbalance_counter_ = &m.counter("engine.anomaly.byte_imbalance");
    last_straggler_gauge_ = &m.gauge("engine.anomaly.last_straggler");
  }
}

double AnomalyWatchdog::median_into_scratch(
    const std::vector<double>& values) {
  scratch_.assign(values.begin(), values.end());
  const auto mid = scratch_.begin() +
                   static_cast<std::ptrdiff_t>(scratch_.size() / 2);
  std::nth_element(scratch_.begin(), mid, scratch_.end());
  return *mid;
}

void AnomalyWatchdog::observe_round(
    Phase phase, std::uint16_t layer, double round_s,
    const std::vector<double>& completion_offset_us,
    const std::vector<std::uint64_t>& send_bytes) {
  KYLIX_CHECK(completion_offset_us.size() == num_ranks_ &&
              send_bytes.size() == num_ranks_);
  ++rounds_seen_;
  const bool warm = rounds_seen_ > opts_.min_samples;

  // ---- Slow rounds: EWMA mean + EWMA absolute deviation ----
  if (rounds_seen_ == 1) {
    ewma_mean_s_ = round_s;
  } else {
    const double excess = round_s - ewma_mean_s_;
    if (warm && excess > opts_.slow_k * std::max(ewma_dev_s_,
                                                 opts_.min_round_s)) {
      ++slow_rounds_;
      if (slow_counter_ != nullptr) slow_counter_->add(1);
      if (opts_.recorder != nullptr) {
        FlightEvent e;
        e.kind = FlightEventKind::kSlowRound;
        e.phase = phase;
        e.layer = layer;
        e.value = round_s;
        opts_.recorder->record(e);
      }
    }
    const double a = opts_.ewma_alpha;
    ewma_dev_s_ = (1 - a) * ewma_dev_s_ + a * std::abs(excess);
    ewma_mean_s_ = (1 - a) * ewma_mean_s_ + a * round_s;
  }

  // ---- Stragglers: MAD over the round's active ranks' completion offsets.
  // A rank that sent nothing this round (offset <= 0) is not a straggler,
  // it is simply not participating — exclude it from the statistics.
  active_.clear();
  for (rank_t r = 0; r < num_ranks_; ++r) {
    if (completion_offset_us[r] > 0) active_.push_back(completion_offset_us[r]);
  }
  if (warm && active_.size() >= 3) {
    const double median = median_into_scratch(active_);
    deviat_.clear();
    for (const double off : active_) deviat_.push_back(std::abs(off - median));
    const double mad = median_into_scratch(deviat_);
    const double gate =
        std::max(opts_.straggler_k * std::max(mad, opts_.min_mad_us),
                 opts_.min_straggler_us);
    for (rank_t r = 0; r < num_ranks_; ++r) {
      const double off = completion_offset_us[r];
      if (off <= 0 || off - median <= gate) continue;
      ++stragglers_;
      last_straggler_ = r;
      if (straggler_counter_ != nullptr) {
        straggler_counter_->add(1);
        last_straggler_gauge_->set(static_cast<double>(r));
      }
      if (opts_.recorder != nullptr) {
        FlightEvent e;
        e.kind = FlightEventKind::kStraggler;
        e.phase = phase;
        e.layer = layer;
        e.rank = r;
        e.value = off - median;  // microseconds behind the pack
        opts_.recorder->record(e);
      }
    }
  }

  // ---- Byte imbalance: MAD over per-rank send volume ----
  active_.clear();
  for (rank_t r = 0; r < num_ranks_; ++r) {
    if (send_bytes[r] > 0) {
      active_.push_back(static_cast<double>(send_bytes[r]));
    }
  }
  if (warm && active_.size() >= 3) {
    const double median = median_into_scratch(active_);
    deviat_.clear();
    for (const double b : active_) deviat_.push_back(std::abs(b - median));
    const double mad = median_into_scratch(deviat_);
    const double gate =
        std::max(opts_.imbalance_k * std::max(mad, 1.0),
                 opts_.min_imbalance_bytes);
    for (rank_t r = 0; r < num_ranks_; ++r) {
      const double b = static_cast<double>(send_bytes[r]);
      if (send_bytes[r] == 0 || std::abs(b - median) <= gate) continue;
      ++byte_imbalances_;
      if (imbalance_counter_ != nullptr) imbalance_counter_->add(1);
      if (opts_.recorder != nullptr) {
        FlightEvent e;
        e.kind = FlightEventKind::kByteImbalance;
        e.phase = phase;
        e.layer = layer;
        e.rank = r;
        e.value = b - median;
        e.bytes = send_bytes[r];
        opts_.recorder->record(e);
      }
    }
  }
}

}  // namespace kylix::obs
