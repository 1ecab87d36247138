// SparseAllreduce — the public orchestration API (§III).
//
// Configuration is a *compiler*: configure()/compile() run the downward
// configuration pass once, with one KylixNode per rank (core/node.hpp)
// writing its routing state (unions, positional maps, split boundaries,
// per-round piece sizes) straight into an immutable CollectivePlan
// (core/plan.hpp). Value traffic is *replay*: reduce() hands the plan to a
// ReduceExecutor (core/executor.hpp) that re-runs the frozen schedule with
// fresh buffers, touching no routing state. Usage patterns:
//
//   * configure() once, reduce() many times — graph algorithms whose in/out
//     vertex sets are fixed across iterations (PageRank, §III). The first
//     call compiles; every reduce is a plan replay.
//   * configure(plan) / configure_cached() — adopt a previously compiled
//     (possibly PlanCache-served) plan, skipping configuration entirely.
//   * reduce_strided() — push k interleaved payload vectors through one
//     replay, amortizing routing across payloads.
//   * reduce_with_config() — minibatch workloads whose sets change every
//     step; configuration letters carry the values, so the configuration
//     pass doubles as the scatter-reduce and the executor's up half finishes
//     the reduction, saving a full downward pass. The plan it compiles is
//     anonymous (fingerprint 0: never cached) but replayable by reduce().
//
// Modeled compute (tree merges, scatter-adds, gathers) is charged to the
// engine per round when a ComputeModel is supplied, so timing reports
// include local work, not just wire time.
#pragma once

#include <algorithm>
#include <concepts>
#include <exception>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cluster/netmodel.hpp"
#include "common/hash.hpp"
#include "core/autotune.hpp"
#include "core/degraded.hpp"
#include "core/executor.hpp"
#include "core/node.hpp"
#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "core/topology.hpp"

namespace kylix {

template <typename V, typename Op = OpSum, typename Engine = void>
class SparseAllreduce {
 public:
  /// `engine` must outlive the allreduce; its rank count must match the
  /// topology. `compute` is optional (no compute charging when null).
  SparseAllreduce(Engine* engine, Topology topology,
                  const ComputeModel* compute = nullptr)
      : engine_(engine), topo_(std::move(topology)), compute_(compute) {
    KYLIX_CHECK(engine_ != nullptr);
    KYLIX_CHECK_MSG(engine_->num_ranks() == topo_.num_machines(),
                    "engine/topology machine count mismatch");
  }

  [[nodiscard]] const Topology& topology() const { return topo_; }

  /// Tell the compiler what network it is scheduling for (optional, not
  /// owned, must outlive the allreduce): compile() then stamps the plan's
  /// streaming chunk size with NetworkModel::min_efficient_packet — the
  /// Fig. 2 knee, the smallest chunk that still runs the wire efficiently.
  void set_network(const NetworkModel* net) { net_ = net; }

  /// Tuning override for the streaming chunk size in payload bytes: applies
  /// to plans compiled afterwards AND to replays of already-adopted plans
  /// (0 clears both, restoring the compiled value).
  void set_chunk_bytes(std::uint64_t bytes) {
    chunk_bytes_ = bytes;
    executor_.set_chunk_bytes_override(bytes);
  }

  /// Toggle streamed replay (chunked letters, eager per-chunk combining —
  /// DESIGN §9). Applies to reduce()/reduce_strided(); reduce_with_config()
  /// ignores it. Bit-identical to letter-at-once on every engine.
  void set_streaming(bool on) { executor_.set_streaming(on); }
  [[nodiscard]] bool streaming() const { return executor_.streaming(); }

  /// Telemetry of the last reduce (chunks, block flushes, buffer
  /// envelopes, overlap ratio).
  [[nodiscard]] const StreamStats& stream_stats() const {
    return executor_.stream_stats();
  }

  /// Attach a flight recorder to replays (optional, not owned): replay
  /// markers plus per-round stream-flush/watermark events.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    executor_.set_flight_recorder(recorder);
  }

  /// Step 1, separate form: exchange and union index sets, compiling the
  /// routing into a plan. `in_sets[r]` / `out_sets[r]` are machine r's
  /// requested / contributed key sets.
  void configure(std::vector<KeySet> in_sets, std::vector<KeySet> out_sets) {
    (void)compile(std::move(in_sets), std::move(out_sets));
  }

  /// Run the configuration pass and freeze its result into a shareable
  /// CollectivePlan; this allreduce is left configured against it (nodes
  /// are retained for introspection). The plan is keyed by a fingerprint of
  /// the input sets salted with this allreduce's topology and dead ranks,
  /// so PlanCache can serve it to later iterations.
  [[nodiscard]] std::shared_ptr<const CollectivePlan> compile(
      std::vector<KeySet> in_sets, std::vector<KeySet> out_sets) {
    const std::uint64_t fp =
        salt_fingerprint(key_fingerprint(in_sets, out_sets));
    return compile_keyed(std::move(in_sets), std::move(out_sets), fp);
  }

  /// Adopt a previously compiled plan (e.g. a PlanCache hit), skipping the
  /// configuration pass entirely. The plan's topology must match. node() is
  /// unavailable on this path — the whole point is that no nodes exist.
  void configure(std::shared_ptr<const CollectivePlan> plan) {
    KYLIX_CHECK(plan != nullptr);
    KYLIX_CHECK_MSG(
        plan->topology().num_machines() == topo_.num_machines() &&
            plan->topology().cores_per_machine() ==
                topo_.cores_per_machine() &&
            std::equal(plan->topology().degrees().begin(),
                       plan->topology().degrees().end(),
                       topo_.degrees().begin(), topo_.degrees().end()),
        "adopted plan was compiled for a different topology");
    nodes_.clear();
    combined_ = false;
    plan_ = std::move(plan);
    executor_.bind(engine_, plan_, compute_, net_);
  }

  /// Cache-aware configure: fingerprint the sets, adopt on a hit, compile
  /// and insert on a miss. Returns true iff the cache served the plan.
  bool configure_cached(PlanCache& cache, std::vector<KeySet> in_sets,
                        std::vector<KeySet> out_sets) {
    const std::uint64_t fp =
        salt_fingerprint(key_fingerprint(in_sets, out_sets));
    if (std::shared_ptr<const CollectivePlan> plan = cache.find(fp)) {
      configure(std::move(plan));
      return true;
    }
    cache.insert(compile_keyed(std::move(in_sets), std::move(out_sets), fp));
    return false;
  }

  /// The plan the last configure()/compile()/reduce_with_config() produced
  /// or adopted (null before any).
  [[nodiscard]] const std::shared_ptr<const CollectivePlan>& plan() const {
    return plan_;
  }

  /// Step 2: push contributions down and pull requested values back up.
  /// `out_values[r]` aligns with the key order of machine r's out set;
  /// the result[r] aligns with the key order of machine r's in set.
  /// Reusable: call any number of times after one configure() or
  /// reduce_with_config(); every call replays the compiled schedule (no
  /// routing state is touched).
  [[nodiscard]] std::vector<std::vector<V>> reduce(
      std::vector<std::vector<V>> out_values) {
    KYLIX_CHECK_MSG(replayable(), "reduce() before configure()");
    return executor_.reduce(std::move(out_values));
  }

  /// Multi-payload replay: reduce `stride` value vectors through one pass.
  /// `out_values[r]` interleaves the payloads key-major (the stride values
  /// of contributed key p occupy [p*stride, (p+1)*stride)); results use the
  /// same layout over requested keys. Bit-identical to `stride` independent
  /// reduce() calls per component.
  [[nodiscard]] std::vector<std::vector<V>> reduce_strided(
      std::vector<std::vector<V>> out_values, std::uint32_t stride) {
    KYLIX_CHECK_MSG(replayable(), "reduce_strided() before configure()");
    return executor_.reduce_strided(std::move(out_values), stride);
  }

  /// Combined configuration + reduction (minibatch mode): config messages
  /// carry values, so the separate downward value pass disappears. The
  /// compiled plan stays bound: reduce() afterwards replays it.
  [[nodiscard]] std::vector<std::vector<V>> reduce_with_config(
      std::vector<KeySet> in_sets, std::vector<KeySet> out_sets,
      std::vector<std::vector<V>> out_values) {
    // Minibatch routing is thrown away per step; the shared-memory tier
    // only pays off on replayed plans, so the hierarchical path
    // deliberately does not exist here.
    KYLIX_CHECK_MSG(!topo_.hierarchical(),
                    "reduce_with_config() supports flat topologies only "
                    "(compile a hierarchical plan and replay it instead)");
    configure_pass(std::move(in_sets), std::move(out_sets),
                   /*fingerprint=*/0, &out_values);
    bind_plan();
    if (!replayable()) {  // every rank died during configuration
      return std::vector<std::vector<V>>(topo_.num_machines());
    }
    return executor_.reduce_up();
  }

  /// Machine r's configuration node, for tests and volume introspection
  /// (Fig. 5 reads the bottom sets off these). A node keeps its layer-0
  /// and bottom sets only; intermediate set sizes are in the plan
  /// (RankPlan::in_sizes / out_sizes). Unavailable after adopting a
  /// precompiled plan (no nodes exist on that path — read the plan
  /// instead).
  [[nodiscard]] const KylixNode<V, Op>& node(rank_t rank) const {
    KYLIX_CHECK_MSG(rank < nodes_.size(),
                    "node() unavailable: configuration was adopted from a "
                    "precompiled plan");
    return nodes_[rank];
  }

  /// Mean out-set size over alive machines at node layers 0..l: the
  /// measured per-node elements P_i entering communication layer i is
  /// entry i-1, and the last entry is the fully reduced bottom. This is the
  /// measured column of the run report's D_i / P_i comparison (src/obs),
  /// read off the plan.
  [[nodiscard]] std::vector<double> measured_layer_elements() const {
    KYLIX_CHECK_MSG(plan_ != nullptr, "no configured state to measure");
    std::vector<double> mean(topo_.num_layers() + 1, 0.0);
    rank_t alive = 0;
    for (rank_t r = 0; r < plan_->num_ranks(); ++r) {
      const RankPlan& rp = plan_->rank_plan(r);
      // Hierarchical members carry no per-layer sizes; only union-holding
      // ranks (flat ranks, host leaders) enter the Prop 4.1 averages.
      if (!rp.configured || engine_->is_dead(r) ||
          rp.out_sizes.size() != mean.size()) {
        continue;
      }
      ++alive;
      for (std::uint16_t i = 0; i <= topo_.num_layers(); ++i) {
        mean[i] += static_cast<double>(rp.out_sizes[i]);
      }
    }
    if (alive > 0) {
      for (double& v : mean) v /= static_cast<double>(alive);
    }
    return mean;
  }

  /// What the last completed run lost, if anything (core/degraded.hpp).
  /// Engines without recovery support (ParallelBspEngine on Wire)
  /// always report an exact run. Call after reduce() / reduce_with_config()
  /// returns.
  [[nodiscard]] DegradedReport degraded_report() const {
    DegradedReport rep;
    if constexpr (requires(const Engine& e) {
                    e.death_records();
                    e.recovery_stats();
                    { e.was_dead_at_start(rank_t{0}) }
                        -> std::convertible_to<bool>;
                    { e.lost_mass_fraction() }
                        -> std::convertible_to<double>;
                  }) {
      rep.deaths = engine_->death_records();
      rep.recovery = engine_->recovery_stats();
      rep.degraded = !rep.deaths.empty();
      if (!rep.degraded) return rep;
      rep.mass_lost_fraction = engine_->lost_mass_fraction();
      for (const DeathRecord& d : rep.deaths) {
        if (!contains(rep.lost_logical, d.logical)) {
          rep.lost_logical.push_back(d.logical);
          if (engine_->was_dead_at_start(d.logical)) {
            rep.lost_from_start.push_back(d.logical);
          }
          // A group's inputs entered the reduction iff it completed its
          // first value-carrying merge. Its chronologically first record
          // tells: dead from the start, at {down, 1}, or during config
          // (only at {config, 1} in combined mode, where values ride the
          // config letters) means the contribution never left the group.
          const bool carries_values =
              d.phase == Phase::kReduceDown ||
              (d.phase == Phase::kConfig && combined_);
          if (engine_->was_dead_at_start(d.logical) ||
              (carries_values ? d.layer <= 1 : d.phase == Phase::kConfig)) {
            rep.inputs_lost.push_back(d.logical);
          }
        }
        rep.degraded_ranges.push_back(
            topo_.key_range(record_node_layer(d), d.logical));
      }
      std::sort(rep.lost_logical.begin(), rep.lost_logical.end());
      std::sort(rep.lost_from_start.begin(), rep.lost_from_start.end());
      std::sort(rep.inputs_lost.begin(), rep.inputs_lost.end());
      prune_ranges(rep.degraded_ranges);
      // Requested indices that resolved to no surviving contributor, per
      // alive requester and globally (sorted, deduplicated), off the plan.
      const rank_t m = topo_.num_machines();
      const auto alive_configured = [&](rank_t r) {
        return plan_ != nullptr && !engine_->is_dead(r) &&
               plan_->rank_plan(r).configured;
      };
      rep.lost_keys_per_rank.resize(m);
      for (rank_t r = 0; r < m; ++r) {
        if (!alive_configured(r)) continue;
        for (const key_t key : plan_->rank_plan(r).missing_bottom) {
          rep.lost_keys.push_back(key);
        }
      }
      std::sort(rep.lost_keys.begin(), rep.lost_keys.end());
      rep.lost_keys.erase(
          std::unique(rep.lost_keys.begin(), rep.lost_keys.end()),
          rep.lost_keys.end());
      for (rank_t r = 0; r < m; ++r) {
        if (!alive_configured(r)) continue;
        const KeySet& in0 = plan_->rank_plan(r).in0;
        for (std::size_t p = 0; p < in0.size(); ++p) {
          const key_t key = in0[p];
          if (rep.covers(key) ||
              std::binary_search(rep.lost_keys.begin(), rep.lost_keys.end(),
                                 key)) {
            rep.lost_keys_per_rank[r].push_back(key);
          }
        }
      }
    }
    return rep;
  }

 private:
  using Node = KylixNode<V, Op>;

  /// PlanCache::fingerprint, one set_digest per pooled task.
  [[nodiscard]] std::uint64_t key_fingerprint(
      const std::vector<KeySet>& in_sets, const std::vector<KeySet>& out_sets) {
    const std::size_t ins = in_sets.size();
    digests_.resize(ins + out_sets.size());
    engine_->intra_round(
        Phase::kConfig, static_cast<rank_t>(digests_.size()), [&](rank_t i) {
          digests_[i] = set_digest(i < ins ? in_sets[i].keys()
                                           : out_sets[i - ins].keys());
        });
    const std::span<const std::uint64_t> digests(digests_);
    return chain_set_digests(digests.first(ins), digests.subspan(ins));
  }

  /// compile() with the salted key already computed (configure_cached
  /// looked it up), so a cache miss hashes the key sets once.
  [[nodiscard]] std::shared_ptr<const CollectivePlan> compile_keyed(
      std::vector<KeySet> in_sets, std::vector<KeySet> out_sets,
      std::uint64_t fp) {
    if (topo_.hierarchical()) {
      return compile_hierarchical(std::move(in_sets), std::move(out_sets),
                                  fp);
    }
    configure_pass(std::move(in_sets), std::move(out_sets), fp,
                   /*values=*/nullptr);
    bind_plan();
    return plan_;
  }

  /// Hierarchical compile (DESIGN §13). The shared-memory tier is compiled
  /// here: per-host unions of the alive members' {in, out} sets, whose
  /// piece->union positional maps from tree_merge_into ARE the intra-stage
  /// scatter/gather maps. The unions are the intra tier's config stage, so
  /// they run inside intra_round(kConfig): hosts are independent (each
  /// writes only its own IntraHost and its leader's node sets, and charges
  /// only its leader), so engines may fan them across threads and the plan
  /// is the same at every thread count. The inter-node butterfly is then
  /// the ordinary flat configuration pass over host leaders (canonical
  /// rank host*c) holding those unions — config rounds are gated to
  /// leaders, so the wire schedule is exactly the flat schedule over one
  /// rank per host. Members get API-surface RankPlans (in0, out0_size,
  /// missing_bottom; no layers); leaders keep host-level replay state but
  /// member-level in0/out0_size, since contributions and results align
  /// with each rank's own sets.
  [[nodiscard]] std::shared_ptr<const CollectivePlan> compile_hierarchical(
      std::vector<KeySet> in_sets, std::vector<KeySet> out_sets,
      std::uint64_t fp) {
    const rank_t m = topo_.num_machines();
    check_per_machine("in_sets", in_sets.size());
    check_per_machine("out_sets", out_sets.size());
    const rank_t hosts = topo_.num_hosts();
    const std::uint32_t c = topo_.cores_per_machine();

    std::vector<IntraHost> intra(hosts);
    std::vector<KeySet> node_in(m);
    std::vector<KeySet> node_out(m);
    engine_->intra_round(Phase::kConfig, hosts, [&](rank_t h) {
      IntraHost& ih = intra[h];
      const rank_t canonical = topo_.leader_rank(h);
      for (std::uint32_t k = 0; k < c; ++k) {
        const rank_t r = canonical + k;
        if (!engine_->is_dead(r)) ih.members.push_back(r);
      }
      // Canonical-leader policy: no election, no rank rewriting. A host
      // whose canonical leader is dead at compile time contributes nothing
      // to the inter-node exchange; its surviving members complete
      // degraded (every requested key resolves to identity, filled below).
      if (ih.members.empty() || engine_->is_dead(canonical)) return;
      ih.leader = canonical;
      UnionResult host_union;
      MergeScratch merge_scratch;
      std::vector<std::span<const key_t>> member_keys;
      for (const rank_t r : ih.members) {
        member_keys.push_back(out_sets[r].keys());
      }
      tree_merge_into(member_keys, host_union, merge_scratch);
      ih.out_maps = std::move(host_union.maps);
      ih.out_union_size = host_union.keys.size();
      node_out[canonical] =
          KeySet::from_sorted_keys(std::vector<key_t>(host_union.keys));
      member_keys.clear();
      for (const rank_t r : ih.members) {
        member_keys.push_back(in_sets[r].keys());
      }
      tree_merge_into(member_keys, host_union, merge_scratch);
      ih.in_maps = std::move(host_union.maps);
      node_in[canonical] =
          KeySet::from_sorted_keys(std::vector<key_t>(host_union.keys));
      // Price the leader-side set unions of the config stage: the leader
      // walks every co-located member's key sets once over the memory bus.
      double elements = 0.0;
      for (const rank_t r : ih.members) {
        elements += static_cast<double>(in_sets[r].size() + out_sets[r].size());
      }
      const auto peers = static_cast<std::uint32_t>(ih.members.size());
      double seconds = 0.0;
      if (net_ != nullptr) {
        seconds += net_->intra_copy_time(elements * sizeof(key_t), peers);
      }
      if (compute_ != nullptr) {
        seconds += compute_->merge_time(elements, peers);
      }
      if (seconds > 0.0) {
        engine_->charge_intra(Phase::kConfig, ih.leader, seconds);
      }
    });

    std::shared_ptr<CollectivePlan> plan = configure_pass(
        std::move(node_in), std::move(node_out), fp, /*values=*/nullptr);
    for (rank_t h = 0; h < hosts; ++h) {
      const IntraHost& ih = intra[h];
      const std::vector<key_t>* host_missing =
          ih.leader != kNoLeader
              ? &plan->rank_plan(ih.leader).missing_bottom
              : nullptr;
      for (const rank_t r : ih.members) {
        RankPlan& rp = plan->mutable_rank_plan(r);
        rp.configured = true;
        rp.in0 = std::move(in_sets[r]);
        rp.out0_size = out_sets[r].size();
        // The leader keeps its host-level missing set (the bottom gather's
        // degraded cold path keys off it); members intersect their own
        // requested keys with it. A leaderless host lost every requested
        // key.
        if (r == ih.leader) continue;
        rp.missing_bottom.clear();
        if (host_missing == nullptr) {
          rp.missing_bottom.assign(rp.in0.begin(), rp.in0.end());
        } else if (!host_missing->empty()) {
          for (const key_t key : rp.in0) {
            if (std::binary_search(host_missing->begin(),
                                   host_missing->end(), key)) {
              rp.missing_bottom.push_back(key);
            }
          }
        }
      }
    }
    plan->set_intra_hosts(std::move(intra));
    bind_plan();
    return plan_;
  }

  /// The one configuration pass behind compile(), compile_hierarchical()
  /// and reduce_with_config(): rank r's node compiles straight into slot r
  /// of a fresh plan over the config rounds, with `values` (combined mode;
  /// null otherwise) riding the config letters. The nodes' work runs in
  /// pooled stages around the rounds (core/node.hpp): the pack before
  /// round 1 and a union after every round. Ranks that never finish (dead,
  /// hierarchical members) are left with empty slots. Stamps the streaming
  /// chunk size.
  std::shared_ptr<CollectivePlan> configure_pass(
      std::vector<KeySet> in_sets, std::vector<KeySet> out_sets,
      std::uint64_t fingerprint, std::vector<std::vector<V>>* values) {
    auto plan = std::make_shared<CollectivePlan>(topo_, fingerprint);
    // Current from the start, so the nodes' slots live as long as the nodes
    // do (the old nodes go first, with the plan they wrote into) and a pass
    // that throws leaves the allreduce unconfigured: the executor stays
    // bound to the previous plan, so replayable() is false.
    nodes_.clear();
    plan_ = plan;
    combined_ = values != nullptr;
    build_nodes(std::move(in_sets), std::move(out_sets), *plan);
    if (values != nullptr) load_values(*values);
    if (topo_.num_layers() >= 1) pack();
    for (std::uint16_t layer = 1; layer <= topo_.num_layers(); ++layer) {
      run_config_round(layer);
      node_stage([&](Node& node) {
        if (!sits_out(node.rank())) node.unite(layer);
      });
    }
    finish_configure();
    for (rank_t r = 0; r < plan->num_ranks(); ++r) {
      RankPlan& rp = plan->mutable_rank_plan(r);
      if (!rp.configured) rp = RankPlan{};
    }
    plan->set_chunk_bytes(
        chunk_bytes_ != 0
            ? chunk_bytes_
            : (net_ != nullptr
                   ? static_cast<std::uint64_t>(net_->min_efficient_packet())
                   : 0));
    return plan;
  }

  /// Bind the executor to the current plan, unless it covers no rank
  /// (compiled under total failure: nothing to replay).
  void bind_plan() {
    if (plan_->any_configured()) {
      executor_.bind(engine_, plan_, compute_, net_);
    }
  }

  /// True iff the executor is bound to the current plan.
  [[nodiscard]] bool replayable() const {
    return plan_ != nullptr && executor_.plan() == plan_;
  }

  void check_per_machine(const char* what, std::size_t count) const {
    KYLIX_CHECK_MSG(count == topo_.num_machines(),
                    what << " has " << count << " entries, expected "
                         << topo_.num_machines() << " (one per machine)");
  }

  void build_nodes(std::vector<KeySet> in_sets, std::vector<KeySet> out_sets,
                   CollectivePlan& plan) {
    const rank_t m = topo_.num_machines();
    check_per_machine("in_sets", in_sets.size());
    check_per_machine("out_sets", out_sets.size());
    // Nodes are rebuilt per configuration pass, but their working storage
    // persists here, so repeated minibatch steps reuse warmed buffers
    // instead of re-allocating every letter and union.
    if (scratch_.size() < m) scratch_.resize(m);
    nodes_.reserve(m);
    for (rank_t r = 0; r < m; ++r) {
      nodes_.emplace_back(&topo_, r, std::move(in_sets[r]),
                          std::move(out_sets[r]), &plan.mutable_rank_plan(r),
                          &scratch_[r]);
    }
  }

  /// Combined mode: hand every rank's contribution to its node, which
  /// reduces it into the executor's lane for that rank.
  void load_values(std::vector<std::vector<V>>& out_values) {
    check_per_machine("out_values", out_values.size());
    std::vector<ReplayScratch<V>>& lanes = executor_.lanes(nodes_.size());
    for (rank_t r = 0; r < nodes_.size(); ++r) {
      ReduceExecutor<V, Op, Engine>::note_input_mass(engine_, r,
                                                      out_values[r]);
      nodes_[r].set_combined(lanes[r], out_values[r]);
    }
  }

  void finish_configure() {
    // A recovery-capable engine that already lost a whole replica group
    // switches surviving nodes to degraded completion: unresolvable
    // requested indices become identity instead of aborting the run.
    bool degraded = false;
    if constexpr (requires(Engine& e) {
                    { e.degraded_allowed() } -> std::convertible_to<bool>;
                    { e.has_failed() } -> std::convertible_to<bool>;
                  }) {
      degraded = engine_->degraded_allowed() && engine_->has_failed();
    }
    // Hierarchical non-leaders never configure as nodes; their RankPlans
    // are filled from the intra tier in compile_hierarchical.
    const auto finishes = [&](rank_t r) {
      return !engine_->is_dead(r) &&
             (!topo_.hierarchical() || topo_.is_leader(r));
    };
    for (Node& node : nodes_) {
      if (finishes(node.rank())) node.reserve_finish();
    }
    node_stage([&](Node& node) {
      if (finishes(node.rank())) node.finish_configure(degraded);
    });
  }

  /// fn(node) for every node, one pooled task per rank; the lowest failing
  /// rank's error is rethrown, the one a serial loop would stop at.
  template <typename Fn>
  void node_stage(Fn&& fn) {
    errors_.assign(nodes_.size(), nullptr);
    engine_->intra_round(Phase::kConfig, static_cast<rank_t>(nodes_.size()),
                         [&](rank_t r) {
                           try {
                             fn(nodes_[r]);
                           } catch (...) {
                             errors_[r] = std::current_exception();
                           }
                         });
    for (const std::exception_ptr& e : errors_) {
      if (e) std::rethrow_exception(e);
    }
  }

  /// Hierarchical topologies exchange between host leaders only: the other
  /// cores of a host hold no per-layer routing state (their unions live at
  /// the leader), so they neither produce, expect, nor consume letters.
  [[nodiscard]] bool sits_out(rank_t r) const {
    return topo_.hierarchical() && !topo_.is_leader(r);
  }

  /// The pack stage before round 1, cut by letters: each rank splits its
  /// sets on the driving thread, then one task per letter copies its keys
  /// (a rank dead now may be revived for round 1).
  void pack() {
    pack_tasks_.clear();
    for (rank_t r = 0; r < nodes_.size(); ++r) {
      if (sits_out(r)) continue;
      nodes_[r].plan_pack();
      for (std::uint32_t q = 0; q < topo_.degree(1); ++q) {
        pack_tasks_.emplace_back(r, q);
      }
    }
    engine_->intra_round(Phase::kConfig,
                         static_cast<rank_t>(pack_tasks_.size()),
                         [&](rank_t t) {
                           const auto [r, q] = pack_tasks_[t];
                           nodes_[r].pack(q);
                         });
  }

  /// One config round: produce hands the letters over and consume parks
  /// the pieces; their modeled work is charged here, in rank order.
  void run_config_round(std::uint16_t layer) {
    engine_->round(
        Phase::kConfig, layer,
        // Reference returns: produce hands out the node's reusable letter
        // shells; expected hands out the cached group (no copies per round).
        [&](rank_t r) -> std::vector<Letter<V>>& {
          if (sits_out(r)) return empty_letters_;
          return nodes_[r].config_produce(layer);
        },
        [&](rank_t r) -> const std::vector<rank_t>& {
          if (sits_out(r)) return empty_ranks_;
          return nodes_[r].expected(layer);
        },
        [&](rank_t r, std::vector<Letter<V>>&& inbox) {
          if (sits_out(r)) return;
          nodes_[r].config_consume(layer, std::move(inbox));
          charge(layer, nodes_[r]);
        });
  }

  static bool contains(const std::vector<rank_t>& v, rank_t x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  }

  /// Node layer whose key range a death record takes down. A group dying at
  /// {down, i} held its layer i-1 merged partial; one noticed at {up, i}
  /// was the only path to its layer-i fully-reduced values. Config deaths
  /// follow the down rule in combined mode (values ride config letters);
  /// in separate mode only key routing through the group is lost, which is
  /// the layer-i subrange. Clamped at 1: a group that never merged anything
  /// loses at most its layer-1 range (its own inputs are priced by
  /// inputs_lost, not by a range).
  [[nodiscard]] std::uint16_t record_node_layer(const DeathRecord& d) const {
    if (d.phase == Phase::kReduceUp) return d.layer;
    if (d.phase == Phase::kConfig && !combined_) return d.layer;
    return std::max<std::uint16_t>(d.layer, 2) - 1;
  }

  /// Dead ranks can't answer configuration, so two compiles of the *same*
  /// key sets under different alive sets produce different plans. Fold the
  /// dead set into the fingerprint (order-independent xor of per-rank
  /// digests) so per-epoch plans never collide in the PlanCache; identity
  /// when every rank is alive, so full-membership fingerprints — including
  /// after a rejoin — are unchanged and still hit their original entries.
  [[nodiscard]] std::uint64_t salt_fingerprint(std::uint64_t fp) const {
    if (fp == 0) return 0;  // anonymous plans stay anonymous
    for (rank_t r = 0; r < topo_.num_machines(); ++r) {
      if (engine_->is_dead(r)) {
        fp ^= mix64(0x6d656d62ULL ^ static_cast<std::uint64_t>(r));
      }
    }
    // Two degree vectors over the same ranks and sets compile different
    // plans, and configure(plan) refuses a plan of another topology, so
    // allreduces sharing one PlanCache must miss, not collide.
    fp = mix64(fp ^ (0x64656772ULL << 8) ^ topo_.num_layers());
    for (const std::uint32_t degree : topo_.degrees()) fp = mix64(fp ^ degree);
    // The intra tier reshapes the whole schedule, so hierarchical and flat
    // plans over the same key sets must coexist in a PlanCache. Salted only
    // when cores > 1: a one-core "hierarchical" topology compiles the exact
    // flat plan, and keeping the fingerprint unchanged lets it hit the flat
    // entry (tested by the hierarchy lane).
    if (topo_.hierarchical()) {
      fp = mix64(fp ^ (0x686f7374ULL << 8) ^
                 static_cast<std::uint64_t>(topo_.cores_per_machine()));
    }
    return fp == 0 ? 1 : fp;
  }

  /// True iff `inner` ⊆ `outer` (hi == 0 with lo != 0 means "up to 2^64").
  static bool range_within(const KeyRange& inner, const KeyRange& outer) {
    if (outer.is_full()) return true;
    if (inner.is_full()) return false;
    if (inner.lo < outer.lo) return false;
    if (outer.hi == 0) return true;
    return inner.hi != 0 && inner.hi <= outer.hi;
  }

  /// Drop ranges contained in another (death records repeat across rounds
  /// at nested layers); collapse to the full space if any record was.
  static void prune_ranges(std::vector<KeyRange>& ranges) {
    for (const KeyRange& range : ranges) {
      if (range.is_full()) {
        ranges.assign(1, KeyRange::full());
        return;
      }
    }
    std::vector<KeyRange> kept;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      bool dominated = false;
      for (std::size_t k = 0; k < ranges.size() && !dominated; ++k) {
        if (k == i) continue;
        if (range_within(ranges[i], ranges[k]) &&
            !(range_within(ranges[k], ranges[i]) && k > i)) {
          dominated = true;
        }
      }
      if (!dominated) kept.push_back(ranges[i]);
    }
    ranges.swap(kept);
  }

  /// Charge a config round's modeled merge/gather (and, in combined mode,
  /// combine) work to the engine.
  void charge(std::uint16_t layer, Node& node) {
    const NodeWork work = node.take_work();
    if (compute_ == nullptr) return;
    engine_->charge_compute(Phase::kConfig, layer, node.rank(),
                            work.seconds(*compute_));
  }

  Engine* engine_;
  Topology topo_;
  const ComputeModel* compute_;
  const NetworkModel* net_ = nullptr;  ///< chunk-size compiler input
  std::uint64_t chunk_bytes_ = 0;      ///< tuning override (0 = compiled)
  /// The last configuration pass carried values (reduce_with_config):
  /// config-phase deaths then follow the down rule (record_node_layer).
  bool combined_ = false;
  std::vector<Node> nodes_;
  std::vector<Letter<V>> empty_letters_;  ///< hierarchical non-leader rounds
  std::vector<rank_t> empty_ranks_;
  std::vector<NodeScratch<V>> scratch_;  ///< per-rank, survives build_nodes
  std::vector<std::pair<rank_t, std::uint32_t>> pack_tasks_;  ///< (rank, q)
  std::vector<std::exception_ptr> errors_;  ///< node_stage, per rank
  std::vector<std::uint64_t> digests_;   ///< per-set, fingerprint() scratch
  std::shared_ptr<const CollectivePlan> plan_;
  ReduceExecutor<V, Op, Engine> executor_;
};

}  // namespace kylix
