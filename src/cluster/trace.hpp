// Message traces: the bridge between the data-moving engines and the timing
// model (DESIGN.md decision 2: correctness and timing are decoupled).
//
// Every engine records one MsgEvent per message it delivers. Volume charts
// (Fig. 5) read the trace directly; the engines also feed each event live
// to a TimingAccumulator (timing.hpp), which prices it on a NetworkModel.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace kylix {

enum class Phase : std::uint8_t {
  kConfig = 0,      ///< downward index-set partitioning/unioning
  kReduceDown = 1,  ///< downward scatter-reduce of values
  kReduceUp = 2,    ///< upward allgather of reduced values
};

[[nodiscard]] const char* phase_name(Phase phase);

struct MsgEvent {
  Phase phase = Phase::kConfig;
  std::uint16_t layer = 0;  ///< communication layer, 1-based as in the paper
  rank_t src = 0;
  rank_t dst = 0;
  std::uint64_t bytes = 0;
};

class Trace {
 public:
  void add(const MsgEvent& event) { events_.push_back(event); }
  void clear() { events_.clear(); }

  /// Make room for `additional` more events. Engines that stage a round
  /// before delivering (ParallelBspEngine) call this with the exact round
  /// size so recording never reallocates mid-round.
  void reserve(std::size_t additional) {
    events_.reserve(events_.size() + additional);
  }

  [[nodiscard]] const std::vector<MsgEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t num_messages() const { return events_.size(); }

  /// Total bytes across all events (self-messages included, as in Fig. 5's
  /// "including packets to its own").
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// Total bytes per communication layer for one phase; index 0 of the
  /// result is layer 1. `num_layers` pads the result.
  [[nodiscard]] std::vector<std::uint64_t> bytes_by_layer(
      Phase phase, std::uint16_t num_layers) const;

  /// Bytes per layer summed over config + reduce-down + reduce-up.
  [[nodiscard]] std::vector<std::uint64_t> bytes_by_layer_all_phases(
      std::uint16_t num_layers) const;

  void append(const Trace& other) {
    events_.reserve(events_.size() + other.events_.size());
    events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  }

 private:
  std::vector<MsgEvent> events_;
};

}  // namespace kylix
