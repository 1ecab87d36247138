// EpochedPlanManager — self-healing re-planning on membership change.
//
// Couples a SparseAllreduce to a MembershipView: the caller runs reduces as
// usual and calls heal() at round barriers (between reduces — the only
// points where no letters are in flight). When the membership epoch has
// advanced (a rank was confirmed dead, or a dead rank rejoined), the
// manager re-plans:
//
//   1. reset the engine's epoch-scoped degraded bookkeeping (begin_epoch,
//      when the engine has it) so post-heal DegradedReports describe only
//      rounds run on the new plan;
//   2. recompile the same key sets under the new alive set. Dead ranks
//      simply never answer configuration, so the compiler's split machinery
//      redistributes their key ranges across survivors and surviving nodes
//      resolve orphaned keys to identity. The plan fingerprint is salted
//      with the dead set (SparseAllreduce::salt_fingerprint), so per-epoch
//      plans coexist in the PlanCache and a full-membership rejoin hits the
//      original epoch-0 entry;
//   3. atomically swap: the allreduce is left configured against the new
//      plan, and an attached AsyncExecutor is drained, rebound, and stamped
//      with the new epoch for subsequent submissions. Old-epoch streams
//      replayed their values on the old plan at submit; the drain prices
//      their timeline on that plan's letter schedule, which the executor's
//      shared_ptr keeps alive even if the cache evicted the plan.
//
// The epoch timeline (one entry per re-plan, with wall re-plan cost and a
// cache-hit flag) powers `kylix_cli heal` and the bench healing gate.
#pragma once

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/membership.hpp"
#include "core/allreduce.hpp"
#include "core/async_executor.hpp"
#include "core/plan_cache.hpp"
#include "obs/metrics.hpp"

namespace kylix {

template <typename V, typename Op, typename Engine>
class EpochedPlanManager {
 public:
  struct Options {
    /// Optional, not owned: healed plans are inserted/served here (and the
    /// fingerprint salt keeps epochs from colliding).
    PlanCache* cache = nullptr;
    /// Optional, not owned: drained + rebound + epoch-stamped on each heal.
    /// Take pending results before heal() — rebinding rebases the stream
    /// table, so untaken old-epoch results are dropped.
    AsyncExecutor<V, Op>* async = nullptr;
    typename AsyncExecutor<V, Op>::Options async_options{};
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// One row of the healing timeline; row 0 is the initial configure.
  struct EpochEntry {
    std::uint64_t epoch = 0;
    double replan_s = 0;        ///< wall seconds spent re-planning
    std::size_t alive = 0;      ///< members alive when the plan was cut
    std::vector<rank_t> dead;   ///< confirmed-dead members at this epoch
    bool cache_hit = false;     ///< plan served from the PlanCache
    std::uint64_t fingerprint = 0;
  };

  /// All pointers not owned and must outlive the manager.
  EpochedPlanManager(SparseAllreduce<V, Op, Engine>* allreduce,
                     MembershipView* view, Options options = {})
      : allreduce_(allreduce), view_(view), opts_(options) {
    KYLIX_CHECK(allreduce_ != nullptr && view_ != nullptr);
    KYLIX_CHECK_MSG(
        view_->num_members() == allreduce_->topology().num_machines(),
        "membership view / topology machine count mismatch");
  }

  /// Epoch-anchor configure: stores the key sets for later re-plans, then
  /// compiles (via the cache when one is attached) and binds the async
  /// executor when one is attached.
  void configure(std::vector<KeySet> in_sets, std::vector<KeySet> out_sets) {
    in_sets_ = std::move(in_sets);
    out_sets_ = std::move(out_sets);
    last_epoch_ = view_->epoch();
    timeline_.clear();
    timeline_.push_back(cut_plan());
  }

  /// Re-plan iff the membership epoch advanced by `now_s` (view time).
  /// Call at round barriers only. Returns true iff a new plan was cut.
  bool heal(double now_s) {
    view_->poll(now_s);
    return maybe_replan();
  }

  /// Like heal(), but first advances the view past every pending probe
  /// deadline — for drivers without a heartbeat clock of their own.
  bool heal_settled(double now_s) {
    view_->poll_settled(now_s);
    return maybe_replan();
  }

  /// Attach the engine driving the allreduce so epoch-scoped degraded
  /// bookkeeping (ReplicatedBsp::begin_epoch) resets on heal. Optional;
  /// engines without per-epoch state need nothing.
  void set_engine(Engine* engine) { engine_ = engine; }

  [[nodiscard]] std::uint64_t epoch() const { return last_epoch_; }
  [[nodiscard]] const std::vector<EpochEntry>& timeline() const {
    return timeline_;
  }
  /// Wall cost of the initial full-membership configure — the healing
  /// gate's baseline (re-plan ≤ 1.5× this).
  [[nodiscard]] double cold_configure_seconds() const {
    KYLIX_CHECK(!timeline_.empty());
    return timeline_.front().replan_s;
  }

 private:
  bool maybe_replan() {
    if (view_->epoch() == last_epoch_) return false;
    KYLIX_CHECK_MSG(!in_sets_.empty(), "heal() before configure()");
    last_epoch_ = view_->epoch();
    if constexpr (requires(Engine& e) { e.begin_epoch(); }) {
      if (engine_ != nullptr) engine_->begin_epoch();
    }
    timeline_.push_back(cut_plan());
    if (opts_.metrics != nullptr) {
      opts_.metrics->counter("membership.replans").add(1);
      opts_.metrics->gauge("membership.replan_seconds")
          .set(timeline_.back().replan_s);
    }
    return true;
  }

  /// Compile/adopt a plan for the current alive set and time it.
  [[nodiscard]] EpochEntry cut_plan() {
    const auto t0 = std::chrono::steady_clock::now();
    bool hit = false;
    if (opts_.cache != nullptr) {
      hit = allreduce_->configure_cached(*opts_.cache, in_sets_, out_sets_);
    } else {
      allreduce_->configure(in_sets_, out_sets_);
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (opts_.async != nullptr) {
      opts_.async->drain();  // old-epoch streams finish on the old plan
      opts_.async->bind(allreduce_->plan(), opts_.async_options);
      opts_.async->set_epoch(view_->epoch());
    }
    EpochEntry entry;
    entry.epoch = view_->epoch();
    entry.replan_s = std::chrono::duration<double>(t1 - t0).count();
    entry.dead = view_->dead_members();
    entry.alive = view_->num_members() - entry.dead.size();
    entry.cache_hit = hit;
    entry.fingerprint =
        allreduce_->plan() != nullptr ? allreduce_->plan()->fingerprint() : 0;
    return entry;
  }

  SparseAllreduce<V, Op, Engine>* allreduce_;
  MembershipView* view_;
  Engine* engine_ = nullptr;
  Options opts_;
  std::vector<KeySet> in_sets_;
  std::vector<KeySet> out_sets_;
  std::vector<EpochEntry> timeline_;
  std::uint64_t last_epoch_ = 0;
};

}  // namespace kylix
