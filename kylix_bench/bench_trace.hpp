// Outside-in per-layer timing for the benchmark's traced pass.
//
// Nothing in src/ is instrumented: TimedEngine<Inner> wraps the engine that
// SparseAllreduce and ReduceExecutor drive and forwards every call they
// make, timing round() / intra_round() and the produce / consume callbacks
// those calls hand in; the benchmark adds op, build-sets and API spans
// around its own calls into the library. Everything lands in one Recorder:
//
//   * per-op sums (OpLayers), read by the benchmark after each op, from which
//     the per-layer metrics are medians over ops;
//   * a preallocated span buffer, written as Chrome trace-event JSON at exit
//     (open it in https://ui.perfetto.dev). Spans of one op share its op id.
//
// Produce and consume callbacks run on pool workers concurrently, so their
// per-round windows and the span cursor are atomics (each span claims its
// own slot); the per-op sums are touched only by the driving thread.
// Recording never allocates once the buffer is reserved: spans past its
// capacity are counted and dropped.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/trace.hpp"
#include "common/types.hpp"
#include "obs/json_writer.hpp"

namespace kylix::bench {

using Nanos = std::int64_t;

inline Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deepest butterfly the per-layer columns cover (2^10 = 1024 binary ranks).
inline constexpr std::uint16_t kMaxLayers = 10;

enum class SpanKind : std::uint8_t {
  kOp,
  kBuildSets,
  kApi,
  kRound,
  kIntra,
  kProduce,
  kConsume
};

/// One op's time split, in nanoseconds of host wall time unless noted.
struct OpLayers {
  Nanos op = 0;          ///< the timed op (sum of its timed segments)
  Nanos build_sets = 0;  ///< KeySet::from_indices + merge_union calls
  Nanos api = 0;         ///< public allreduce calls, rounds included
  Nanos rounds = 0;      ///< engine round() calls
  Nanos intra = 0;       ///< engine intra_round() calls
  Nanos produce_wall = 0;  ///< per round: first produce start..last end
  Nanos consume_wall = 0;
  Nanos produce_busy = 0;  ///< summed callback durations, all threads
  Nanos consume_busy = 0;
  std::array<Nanos, 3> phase{};  ///< round wall by Phase
  std::array<Nanos, kMaxLayers> layer{};  ///< round wall by comm layer
  std::uint64_t num_rounds = 0;
  std::uint64_t letters = 0;  ///< letters produced (self-letters included)
};

class Recorder {
 public:
  /// `capacity` spans are reserved up front; `detailed_ops` is how many
  /// leading ops also record one span per produce / consume callback.
  Recorder(std::size_t capacity, std::uint32_t detailed_ops)
      : detailed_ops_(detailed_ops), origin_(now_ns()) {
    spans_.resize(capacity);
  }

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void begin_op() {
    ++op_;
    cur_ = OpLayers{};
  }
  /// The op's sums; `op_ns` is the op time the caller measured.
  [[nodiscard]] const OpLayers& end_op(Nanos op_ns) {
    cur_.op = op_ns;
    return cur_;
  }
  [[nodiscard]] OpLayers& current() { return cur_; }

  void span(SpanKind kind, Nanos t0, Nanos t1, Phase phase = Phase::kConfig,
            std::uint16_t layer = 0, rank_t rank = 0) {
    const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= spans_.size()) return;
    spans_[slot] = Span{t0,    t1,    op_,  rank,
                        layer, phase, kind, thread_slot()};
  }

  /// Whether this op records per-callback spans (op 0, the set-up and
  /// warm-up before the first begin_op, never does).
  [[nodiscard]] bool detailed() const {
    return op_ >= 1 && op_ <= detailed_ops_;
  }

  [[nodiscard]] std::size_t dropped() const {
    const std::size_t used = next_.load(std::memory_order_relaxed);
    return used > spans_.size() ? used - spans_.size() : 0;
  }

  /// {"traceEvents": [...]} with one "X" event per recorded span; tid is
  /// the recording thread, args carry the op id (and rank / layer).
  void write_chrome_trace(std::ostream& out) const {
    obs::JsonWriter json(out);
    json.begin_object();
    json.key("traceEvents");
    json.begin_array();
    const std::size_t n =
        std::min(next_.load(std::memory_order_relaxed), spans_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      json.begin_object();
      json.key_value("name", span_name(s));
      json.key_value("ph", "X");
      json.key_value("pid", 1);
      json.key_value("tid", static_cast<unsigned>(s.tid));
      json.key_value("ts", static_cast<double>(s.t0 - origin_) * 1e-3);
      json.key_value("dur", static_cast<double>(s.t1 - s.t0) * 1e-3);
      json.key("args");
      json.begin_object();
      json.key_value("op", static_cast<unsigned>(s.op));
      if (s.kind == SpanKind::kProduce || s.kind == SpanKind::kConsume) {
        json.key_value("rank", static_cast<unsigned>(s.rank));
      }
      if (s.layer != 0) json.key_value("layer", static_cast<unsigned>(s.layer));
      json.end_object();
      json.end_object();
    }
    json.end_array();
    json.key_value("droppedSpans", static_cast<std::uint64_t>(dropped()));
    json.end_object();
    out << '\n';
  }

 private:
  struct Span {
    Nanos t0 = 0;
    Nanos t1 = 0;
    std::uint32_t op = 0;
    rank_t rank = 0;
    std::uint16_t layer = 0;
    Phase phase = Phase::kConfig;
    SpanKind kind = SpanKind::kOp;
    std::uint8_t tid = 0;
  };

  static std::uint8_t thread_slot() {
    static std::atomic<std::uint8_t> next{0};
    thread_local const std::uint8_t slot = next.fetch_add(1);
    return slot;
  }

  static std::string span_name(const Span& s) {
    switch (s.kind) {
      case SpanKind::kOp:
        return "op";
      case SpanKind::kBuildSets:
        return "build_sets";
      case SpanKind::kApi:
        return "api";
      case SpanKind::kRound:
        return std::string(phase_name(s.phase)) + " L" +
               std::to_string(s.layer);
      case SpanKind::kIntra:
        return std::string("intra ") + phase_name(s.phase);
      case SpanKind::kProduce:
        return "produce";
      case SpanKind::kConsume:
        return "consume";
    }
    return "?";
  }

  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::uint32_t detailed_ops_;
  std::uint32_t op_ = 0;
  Nanos origin_;
  OpLayers cur_;
};

/// Caller-side span around one call into the library: adds its duration to
/// `*sum` and records it. A null recorder makes it a no-op, so the untraced
/// pass runs the same code.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* rec, SpanKind kind, Nanos OpLayers::*sum)
      : rec_(rec), kind_(kind), sum_(sum), t0_(rec ? now_ns() : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (rec_ == nullptr) return;
    const Nanos t1 = now_ns();
    rec_->current().*sum_ += t1 - t0_;
    rec_->span(kind_, t0_, t1);
  }

 private:
  Recorder* rec_;
  SpanKind kind_;
  Nanos OpLayers::*sum_;
  Nanos t0_;
};

/// Start/end window and busy time of one round's produce (or consume)
/// callbacks, updated concurrently by the pool workers.
class CallbackWindow {
 public:
  void reset() {
    first_.store(std::numeric_limits<Nanos>::max(), std::memory_order_relaxed);
    last_.store(std::numeric_limits<Nanos>::min(), std::memory_order_relaxed);
    busy_.store(0, std::memory_order_relaxed);
  }
  void add(Nanos t0, Nanos t1) {
    Nanos seen = first_.load(std::memory_order_relaxed);
    while (t0 < seen && !first_.compare_exchange_weak(
                            seen, t0, std::memory_order_relaxed)) {
    }
    seen = last_.load(std::memory_order_relaxed);
    while (t1 > seen && !last_.compare_exchange_weak(
                            seen, t1, std::memory_order_relaxed)) {
    }
    busy_.fetch_add(t1 - t0, std::memory_order_relaxed);
  }
  /// Read after the round returned (the engine's barrier orders the adds).
  [[nodiscard]] Nanos wall() const {
    const Nanos a = first_.load(std::memory_order_relaxed);
    const Nanos b = last_.load(std::memory_order_relaxed);
    return b > a ? b - a : 0;
  }
  [[nodiscard]] Nanos busy() const {
    return busy_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<Nanos> first_{0};
  std::atomic<Nanos> last_{0};
  std::atomic<Nanos> busy_{0};
};

/// Forwards the engine interface SparseAllreduce and ReduceExecutor use
/// (round, intra_round, charge_*, is_dead, num_ranks, has_failed,
/// degraded_allowed) to `Inner`, timing rounds and callbacks into a
/// Recorder. Holds no letters itself, so results are the inner engine's.
template <typename Inner>
class TimedEngine {
 public:
  TimedEngine(Inner* inner, Recorder* rec) : inner_(inner), rec_(rec) {}

  TimedEngine(const TimedEngine&) = delete;
  TimedEngine& operator=(const TimedEngine&) = delete;

  /// Switch engines between ops (never inside one). Engines keep no state
  /// across rounds, so an allreduce bound to this wrapper can move between
  /// inner engines of the same rank count; a null recorder forwards
  /// untimed.
  void attach(Inner* inner, Recorder* rec) {
    inner_ = inner;
    rec_ = rec;
  }

  [[nodiscard]] rank_t num_ranks() const { return inner_->num_ranks(); }
  [[nodiscard]] bool is_dead(rank_t rank) const {
    return inner_->is_dead(rank);
  }
  [[nodiscard]] bool has_failed() const { return inner_->has_failed(); }
  [[nodiscard]] bool degraded_allowed() const {
    return inner_->degraded_allowed();
  }
  void charge_compute(Phase phase, std::uint16_t layer, rank_t rank,
                      double seconds) {
    inner_->charge_compute(phase, layer, rank, seconds);
  }
  void charge_intra(Phase phase, rank_t rank, double seconds) {
    inner_->charge_intra(phase, rank, seconds);
  }

  template <typename Fn>
  void intra_round(Phase phase, rank_t num_hosts, Fn&& fn) {
    if (rec_ == nullptr) {
      inner_->intra_round(phase, num_hosts, std::forward<Fn>(fn));
      return;
    }
    const Nanos t0 = now_ns();
    inner_->intra_round(phase, num_hosts, std::forward<Fn>(fn));
    const Nanos t1 = now_ns();
    rec_->current().intra += t1 - t0;
    rec_->span(SpanKind::kIntra, t0, t1, phase);
  }

  template <typename ProduceFn, typename ExpectedFn, typename ConsumeFn>
  void round(Phase phase, std::uint16_t layer, ProduceFn&& produce,
             ExpectedFn&& expected, ConsumeFn&& consume) {
    if (rec_ == nullptr) {
      inner_->round(phase, layer, std::forward<ProduceFn>(produce),
                    std::forward<ExpectedFn>(expected),
                    std::forward<ConsumeFn>(consume));
      return;
    }
    produce_.reset();
    consume_.reset();
    letters_.store(0, std::memory_order_relaxed);
    const bool detailed = rec_->detailed();
    const Nanos t0 = now_ns();
    inner_->round(
        phase, layer,
        [&](rank_t r) -> decltype(produce(r)) {
          const Nanos a = now_ns();
          decltype(produce(r)) letters = produce(r);
          const Nanos b = now_ns();
          produce_.add(a, b);
          letters_.fetch_add(letters.size(), std::memory_order_relaxed);
          if (detailed) rec_->span(SpanKind::kProduce, a, b, phase, layer, r);
          return letters;
        },
        std::forward<ExpectedFn>(expected),
        [&](rank_t r, auto&& inbox) {
          const Nanos a = now_ns();
          consume(r, std::forward<decltype(inbox)>(inbox));
          const Nanos b = now_ns();
          consume_.add(a, b);
          if (detailed) rec_->span(SpanKind::kConsume, a, b, phase, layer, r);
        });
    const Nanos t1 = now_ns();
    OpLayers& op = rec_->current();
    op.rounds += t1 - t0;
    op.phase[static_cast<std::size_t>(phase)] += t1 - t0;
    if (layer >= 1 && layer <= kMaxLayers) op.layer[layer - 1] += t1 - t0;
    op.produce_wall += produce_.wall();
    op.consume_wall += consume_.wall();
    op.produce_busy += produce_.busy();
    op.consume_busy += consume_.busy();
    op.letters += letters_.load(std::memory_order_relaxed);
    ++op.num_rounds;
    rec_->span(SpanKind::kRound, t0, t1, phase, layer);
  }

 private:
  Inner* inner_;
  Recorder* rec_;
  CallbackWindow produce_;
  CallbackWindow consume_;
  std::atomic<std::uint64_t> letters_{0};
};

}  // namespace kylix::bench
