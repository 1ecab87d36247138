// Deterministic, seeded fault schedules (the chaos engine's script).
//
// A FaultPlan extends the static FailureModel into a dynamic one: scripted
// crash/revive events fire at round boundaries (addressed by absolute round
// index or by the k-th occurrence of a {phase, layer} round), and per-edge
// transient faults — drop, duplicate, delay-by-k-rounds — perturb individual
// message copies. Everything is derived from one seed, so a chaos schedule
// replays bit-exactly: the same plan driven through the same engine produces
// the same crashes, the same classify() decisions, and the same stats.
//
// Engines consult the plan through one shared hook (comm/fault_channel.hpp):
// begin_round() at every round boundary, classify() once per transmitted
// copy. The plan owns its FailureModel, so scripted crashes are visible to
// the engine's ordinary dead-node handling with no extra plumbing.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/failure.hpp"
#include "cluster/trace.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace kylix {

/// What happens to one transmitted message copy.
enum class FaultAction : std::uint8_t {
  kDeliver = 0,   ///< arrives normally
  kDrop = 1,      ///< lost on the wire; the sender still pays
  kDuplicate = 2, ///< arrives once but is retransmitted (double wire cost)
  kDelay = 3,     ///< misses this round; redelivered k rounds later
};

[[nodiscard]] const char* fault_action_name(FaultAction action);

struct FaultStats {
  std::uint64_t crashes = 0;     ///< scripted kill events fired
  std::uint64_t revivals = 0;    ///< scripted revive events fired
  std::uint64_t dropped = 0;     ///< copies classified kDrop
  std::uint64_t duplicated = 0;  ///< copies classified kDuplicate
  std::uint64_t delayed = 0;     ///< copies classified kDelay
};

class FaultPlan {
 public:
  explicit FaultPlan(rank_t num_nodes, std::uint64_t seed = 0);

  /// The plan's mutable failure state; hand `&plan.failures()` to engines
  /// (FaultChannel does this automatically when the engine has no model).
  [[nodiscard]] FailureModel& failures() { return failures_; }
  [[nodiscard]] const FailureModel& failures() const { return failures_; }
  [[nodiscard]] rank_t num_nodes() const { return failures_.num_nodes(); }

  // ---- scripted node events (fire at begin_round) ----

  /// Crash/revive `node` when round `round` (0-based, counted across every
  /// begin_round of the consuming engine's lifetime) begins.
  void crash_at_round(rank_t node, std::uint64_t round);
  void revive_at_round(rank_t node, std::uint64_t round);

  /// Crash/revive `node` when the `occurrence`-th round of {phase, layer}
  /// begins (occurrence 0 is the first such round; reduce() iterations
  /// revisit the same {phase, layer} signature, bumping the count).
  void crash_at(rank_t node, Phase phase, std::uint16_t layer,
                std::uint32_t occurrence = 0);
  void revive_at(rank_t node, Phase phase, std::uint16_t layer,
                 std::uint32_t occurrence = 0);

  /// Schedule `count` crashes of distinct uniformly-chosen victims, each at
  /// a uniform round in [0, round_horizon). Drawn from the plan's seed.
  void random_crashes(rank_t count, std::uint64_t round_horizon);

  // ---- per-edge transient faults (consulted by classify) ----

  /// A scripted fault on a specific physical edge; applies to the next
  /// `count` copies classified on (src, dst), then expires.
  struct EdgeRule {
    rank_t src = 0;
    rank_t dst = 0;
    FaultAction action = FaultAction::kDrop;
    std::uint32_t delay_rounds = 1;  ///< used when action == kDelay
    std::uint32_t count = 1;
  };
  void add_edge_rule(const EdgeRule& rule);

  /// Seeded background fault rates, applied per copy to edges with no
  /// matching rule. Phases can be masked out (e.g. keep configuration
  /// clean while battering the reduce passes).
  struct TransientRates {
    double drop = 0;
    double duplicate = 0;
    double delay = 0;
    std::uint32_t delay_rounds = 1;
    bool config = true;
    bool reduce_down = true;
    bool reduce_up = true;
  };
  void set_transient_rates(const TransientRates& rates);

  // ---- the shared delivery hook ----

  /// Round boundary: fires every scripted crash/revive event scheduled for
  /// this round, and arms/disarms the transient rates per the phase mask.
  void begin_round(Phase phase, std::uint16_t layer);

  struct Decision {
    FaultAction action = FaultAction::kDeliver;
    std::uint32_t delay_rounds = 0;
  };

  /// Classify one transmitted copy on edge (src, dst). Deterministic given
  /// the seed and the call sequence; the barriered engines therefore replay
  /// exactly (the threaded engine's interleaving varies the sequence).
  [[nodiscard]] Decision classify(rank_t src, rank_t dst);

  /// Rounds begun so far; current_round() is the 0-based index of the round
  /// most recently begun (valid once rounds_begun() > 0).
  [[nodiscard]] std::uint64_t rounds_begun() const { return rounds_begun_; }
  [[nodiscard]] std::uint64_t current_round() const;

  /// True when the plan can ever perturb anything (events, rules, or
  /// rates); engines skip the hook entirely when no plan is attached.
  [[nodiscard]] bool scripted() const;

  [[nodiscard]] const FaultStats& stats() const { return stats_; }

 private:
  struct Event {
    bool crash = true;  ///< false: revive
    rank_t node = 0;
    bool by_round = true;
    std::uint64_t round = 0;  ///< when by_round
    Phase phase = Phase::kConfig;
    std::uint16_t layer = 0;
    std::uint32_t occurrence = 0;
    bool fired = false;
  };

  void note_action(FaultAction action);
  std::uint32_t bump_occurrence(Phase phase, std::uint16_t layer);

  FailureModel failures_;
  Rng rng_;
  std::vector<Event> events_;
  std::vector<EdgeRule> edge_rules_;
  TransientRates rates_;
  bool has_rates_ = false;
  bool rates_live_ = false;  ///< rates armed for the current round's phase
  FaultStats stats_;
  std::uint64_t rounds_begun_ = 0;
  /// Occurrence counters per (phase << 16 | layer); layers are few, so a
  /// linear-scanned flat vector beats a map.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> occurrences_;
};

}  // namespace kylix
