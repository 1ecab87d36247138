// Watchdog end-to-end: a round where one rank is artificially delayed must
// surface that rank as a straggler through the full telemetry path — the
// engine's per-rank produce times -> TelemetryObserver -> AnomalyWatchdog ->
// metrics + flight-recorder events. Both cases run on ParallelBspEngine at
// one and at four threads and on the replicated engine, whose observer sees
// physical machines: there the delayed rank's alive replicas are flagged.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "comm/parallel.hpp"
#include "comm/replicated.hpp"
#include "obs/engine_obs.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"

namespace kylix {
namespace {

constexpr rank_t kRanks = 6;
constexpr rank_t kSlow = 3;

/// One ring-exchange round: rank r sends a small packet to (r+1) % m and
/// receives from (r-1) % m. When `delay_slow` is set, rank kSlow sleeps
/// while producing, so its produce time is ~20 ms against everyone else's
/// microseconds.
template <typename Engine>
void run_round(Engine& engine, bool delay_slow) {
  static std::vector<std::vector<Letter<float>>> outboxes(kRanks);
  static std::vector<std::vector<rank_t>> senders = [] {
    std::vector<std::vector<rank_t>> s(kRanks);
    for (rank_t r = 0; r < kRanks; ++r) {
      s[r] = {static_cast<rank_t>((r + kRanks - 1) % kRanks)};
    }
    return s;
  }();
  engine.round(
      Phase::kReduceDown, 1,
      [&](rank_t r) -> std::vector<Letter<float>>& {
        if (delay_slow && r == kSlow) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        auto& out = outboxes[r];
        out.clear();
        Letter<float> letter;
        letter.src = r;
        letter.dst = static_cast<rank_t>((r + 1) % kRanks);
        letter.packet.values = {1.0f, 2.0f, 3.0f};
        out.push_back(std::move(letter));
        return out;
      },
      [&](rank_t r) -> const std::vector<rank_t>& { return senders[r]; },
      [](rank_t, std::vector<Letter<float>>&& inbox) {
        float sum = 0;
        for (const Letter<float>& letter : inbox) {
          for (float v : letter.packet.values) sum += v;
        }
        EXPECT_EQ(sum, 6.0f);
      });
}

/// `machines` is what the observer sees; `slow` the machines that run
/// rank kSlow.
template <typename Engine>
void expect_delayed_rank_flagged(Engine& engine, rank_t machines,
                                 const std::set<rank_t>& slow) {
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(machines);
  obs::AnomalyWatchdog::Options wopt;
  wopt.metrics = &metrics;
  wopt.recorder = &recorder;
  obs::AnomalyWatchdog watchdog(machines, wopt);

  obs::TelemetryObserver::Options topt;
  topt.metrics = &metrics;
  topt.recorder = &recorder;
  topt.watchdog = &watchdog;
  obs::TelemetryObserver observer(/*tracer=*/nullptr, machines, topt);
  engine.set_observer(&observer);

  // Quiet rounds establish the baseline past the warmup window...
  for (int i = 0; i < 10; ++i) run_round(engine, /*delay_slow=*/false);
  EXPECT_EQ(watchdog.stragglers(), 0u);
  EXPECT_EQ(watchdog.last_straggler(), obs::kGlobalRank);

  // ...then the delayed rank's 20 ms produce time dwarfs both the MAD gate
  // and the 5 ms absolute floor.
  for (int i = 0; i < 3; ++i) run_round(engine, /*delay_slow=*/true);

  EXPECT_GE(watchdog.stragglers(), slow.size());
  EXPECT_EQ(watchdog.last_straggler(), *slow.rbegin());
  EXPECT_GE(metrics.counter("engine.anomaly.stragglers").value(),
            slow.size());
  EXPECT_DOUBLE_EQ(metrics.gauge("engine.anomaly.last_straggler").value(),
                   static_cast<double>(*slow.rbegin()));

  // The verdicts also landed in the flight recorder as structured events
  // naming exactly the delayed machines, between the round markers the
  // observer emits.
  bool saw_round_end = false;
  std::set<rank_t> flagged;
  for (const obs::FlightEvent& e : recorder.merged_events()) {
    if (e.kind == obs::FlightEventKind::kRoundEnd) saw_round_end = true;
    if (e.kind != obs::FlightEventKind::kStraggler) continue;
    flagged.insert(e.rank);
    EXPECT_GT(e.value, 5000.0);  // microseconds behind the pack
  }
  EXPECT_TRUE(saw_round_end);
  EXPECT_EQ(flagged, slow);
  engine.set_observer(nullptr);
}

template <typename Engine>
void expect_uniform_ranks_unflagged(Engine& engine, rank_t machines) {
  obs::MetricsRegistry metrics;
  obs::AnomalyWatchdog::Options wopt;
  wopt.metrics = &metrics;
  obs::AnomalyWatchdog watchdog(machines, wopt);

  obs::TelemetryObserver::Options topt;
  topt.metrics = &metrics;
  topt.watchdog = &watchdog;
  obs::TelemetryObserver observer(/*tracer=*/nullptr, machines, topt);
  engine.set_observer(&observer);
  for (int i = 0; i < 20; ++i) run_round(engine, /*delay_slow=*/false);

  // Healthy produce times are microseconds, far below the 5 ms absolute
  // straggler floor.
  EXPECT_EQ(watchdog.stragglers(), 0u);
  EXPECT_EQ(metrics.counter("engine.anomaly.stragglers").value(), 0u);
  EXPECT_EQ(watchdog.rounds_seen(), 20u);
  engine.set_observer(nullptr);
}

TEST(StragglerIntegration, DelayedRankIsFlaggedThroughTheEnginePath) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("ParallelBspEngine, threads " + std::to_string(threads));
    ParallelBspEngine<float> engine(kRanks, threads);
    expect_delayed_rank_flagged(engine, kRanks, {kSlow});
  }
  SCOPED_TRACE("ReplicatedBsp, s = 2");
  ReplicatedBsp<float> engine(kRanks, 2, nullptr, nullptr, nullptr, 4);
  expect_delayed_rank_flagged(engine, 2 * kRanks, {kSlow, kSlow + kRanks});
}

TEST(StragglerIntegration, UniformRanksStayUnflagged) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("ParallelBspEngine, threads " + std::to_string(threads));
    ParallelBspEngine<float> engine(kRanks, threads);
    expect_uniform_ranks_unflagged(engine, kRanks);
  }
  SCOPED_TRACE("ReplicatedBsp, s = 2");
  ReplicatedBsp<float> engine(kRanks, 2, nullptr, nullptr, nullptr, 4);
  expect_uniform_ranks_unflagged(engine, 2 * kRanks);
}

}  // namespace
}  // namespace kylix
