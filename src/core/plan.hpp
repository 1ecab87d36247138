// CollectivePlan — the compiled, immutable routing state of one allreduce.
//
// Kylix's configuration pass (§III-A) derives everything value traffic will
// ever need: per-layer unions, the f/g positional maps, split boundaries,
// received-piece sizes, and the bottom in->out map. None of it depends on
// values, only on the {in, out} key sets — so it can be computed once,
// frozen, and replayed. A CollectivePlan holds exactly that frozen state for
// every rank, plus the topology and a fingerprint of the key sets it was
// compiled from, making it shareable (cache it, hand it to many executors,
// replay it across iterations) and value-type independent: the same plan
// drives float and double reduces alike.
//
// Plans are produced by SparseAllreduce::compile() (whose configuration
// rounds have every KylixNode write straight into its rank's slot) and
// consumed by ReduceExecutor (core/executor.hpp), which binds value buffers
// to a plan and replays the schedule without touching any routing state.
// PlanCache (core/plan_cache.hpp) keys plans by fingerprint so recurring
// minibatch patterns skip configuration entirely.
//
// The class is mutable only while being built; everything downstream holds
// it behind shared_ptr<const CollectivePlan>.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/trace.hpp"
#include "common/types.hpp"
#include "core/topology.hpp"
#include "sparse/key_set.hpp"
#include "sparse/merge.hpp"

namespace kylix {

/// Frozen per-communication-layer routing state of one rank, as a KylixNode
/// derives it during configuration.
struct PlanLayer {
  std::vector<rank_t> group;             ///< members == expected senders
  std::vector<std::size_t> in_split;     ///< piece boundaries of in^{i-1}
  std::vector<std::size_t> out_split;    ///< piece boundaries of out^{i-1}
  std::vector<PosMap> in_maps;           ///< g maps (piece -> in union)
  std::vector<PosMap> out_maps;          ///< f maps (piece -> out union)
  std::vector<std::size_t> recv_out_sizes;  ///< per-sender piece lengths
  std::size_t out_union_size = 0;        ///< |out^i| (scatter target size)
  std::size_t in_prev_size = 0;          ///< |in^{i-1}| (allgather target)

  /// Key positions this rank sends group member `d` in a reduce round: its
  /// out^{i-1} piece going down, the in-map gather coming back up.
  [[nodiscard]] std::size_t piece(Phase phase, std::size_t d) const {
    return phase == Phase::kReduceDown ? out_split[d + 1] - out_split[d]
                                       : in_maps[d].size();
  }
};

/// Everything one rank needs to replay reduces against a compiled plan.
struct RankPlan {
  bool configured = false;  ///< dead ranks never finish configuration
  KeySet in0;               ///< requested set (result alignment, loss report)
  std::size_t out0_size = 0;             ///< contributed-set length
  std::vector<std::size_t> in_sizes;     ///< |in^i| for node layers 0..l
  std::vector<std::size_t> out_sizes;    ///< |out^i| for node layers 0..l
  std::vector<PlanLayer> layers;         ///< index i-1 holds comm layer i
  PosMap bottom_map;                     ///< in^l within out^l (kMissingPos
                                         ///< marks degraded holes)
  std::vector<key_t> missing_bottom;     ///< degraded: unresolvable in-keys
};

/// Sentinel: a host with no alive canonical leader at compile time (its
/// members complete degraded — identity results, contributions lost).
inline constexpr rank_t kNoLeader = static_cast<rank_t>(-1);

/// Frozen intra-node tier of one host (DESIGN §13): the alive members at
/// compile time, the canonical leader carrying the host union through the
/// inter-node layers, and the member piece -> host union positional maps
/// that drive the single-copy shared-memory stage. maps[i] belongs to
/// members[i]; out_maps scatter member contributions into the host out
/// union, in_maps gather member results from the host in union.
struct IntraHost {
  rank_t leader = kNoLeader;
  std::vector<rank_t> members;  ///< alive at compile, ascending
  std::vector<PosMap> out_maps;
  std::vector<PosMap> in_maps;
  std::size_t out_union_size = 0;  ///< |host out union| (scatter target)
};

/// One edge of the frozen message schedule (cold-path introspection).
struct ScheduledMessage {
  Phase phase = Phase::kConfig;
  std::uint16_t layer = 0;  ///< communication layer, 1-based
  rank_t src = 0;
  rank_t dst = 0;
  std::size_t elements = 0;  ///< key positions (config: in+out keys)
};

class CollectivePlan {
 public:
  /// `fingerprint` identifies the {in, out} key sets this plan was compiled
  /// from (PlanCache::fingerprint, salted by SparseAllreduce with its
  /// topology and dead ranks); 0 is allowed for anonymous plans.
  CollectivePlan(Topology topology, std::uint64_t fingerprint)
      : topo_(std::move(topology)), fingerprint_(fingerprint) {
    ranks_.resize(topo_.num_machines());
  }

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  [[nodiscard]] rank_t num_ranks() const {
    return static_cast<rank_t>(ranks_.size());
  }

  [[nodiscard]] const RankPlan& rank_plan(rank_t rank) const {
    KYLIX_CHECK(rank < ranks_.size());
    return ranks_[rank];
  }

  /// Build-time access; never call through a const (shared) plan.
  [[nodiscard]] RankPlan& mutable_rank_plan(rank_t rank) {
    KYLIX_CHECK(rank < ranks_.size());
    return ranks_[rank];
  }

  /// True iff any rank finished configuration (a plan compiled under total
  /// failure has nothing to replay).
  [[nodiscard]] bool any_configured() const {
    for (const RankPlan& r : ranks_) {
      if (r.configured) return true;
    }
    return false;
  }

  /// True iff some rank holds degraded holes (compiled after a whole
  /// replica group died): replayed results carry identity at lost keys.
  [[nodiscard]] bool degraded() const {
    for (const RankPlan& r : ranks_) {
      if (!r.missing_bottom.empty()) return true;
    }
    return false;
  }

  /// Streaming chunk size in payload bytes, compiled from
  /// NetworkModel::min_efficient_packet when the allreduce knows its network
  /// (SparseAllreduce::set_network) and overridable via tuning before the
  /// plan is shared. 0 means "no chunk schedule": a streamed executor falls
  /// back to letter-at-once. The executor converts bytes to key positions
  /// per reduce (max(1, chunk_bytes / (sizeof(V) * stride))), so one plan
  /// still serves every value type and stride.
  [[nodiscard]] std::uint64_t chunk_bytes() const { return chunk_bytes_; }
  void set_chunk_bytes(std::uint64_t bytes) { chunk_bytes_ = bytes; }

  /// Intra-node tier of a hierarchical plan, one entry per host (empty for
  /// flat plans). Set once by the compiler before the plan is shared.
  [[nodiscard]] bool hierarchical() const { return !intra_.empty(); }
  [[nodiscard]] const std::vector<IntraHost>& intra_hosts() const {
    return intra_;
  }
  [[nodiscard]] const IntraHost& intra_host(rank_t host) const {
    KYLIX_CHECK(host < intra_.size());
    return intra_[host];
  }
  void set_intra_hosts(std::vector<IntraHost> intra) {
    intra_ = std::move(intra);
  }

  /// The full frozen per-round message schedule: who sends what to whom at
  /// which (phase, layer), in element counts. Cold path (allocates); the
  /// executor replays this implicitly, this form exists for reports/CLI.
  [[nodiscard]] std::vector<ScheduledMessage> message_schedule() const;

  /// Total wire bytes one replayed reduce moves (no config traffic), for
  /// `stride` interleaved payloads of `value_bytes` each: piece keys are
  /// never resent, so bytes grow sublinearly in stride.
  [[nodiscard]] std::uint64_t reduce_wire_bytes(std::size_t value_bytes,
                                                std::uint32_t stride) const;

 private:
  Topology topo_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t chunk_bytes_ = 0;
  std::vector<RankPlan> ranks_;
  std::vector<IntraHost> intra_;  ///< per host; empty for flat plans
};

/// Order- and role-sensitive fingerprint of per-rank {in, out} key sets:
/// two workloads collide only if every rank requests and contributes the
/// same keys. Each set gets its own digest over 8 independent lanes (key p
/// feeds lane p mod 8), folded with its length through mix64
/// (common/hash.hpp); the digests are chained in rank order, in sets
/// first. Allocation-free, O(total keys).
[[nodiscard]] std::uint64_t fingerprint_key_sets(
    std::span<const KeySet> in_sets, std::span<const KeySet> out_sets);

/// fingerprint_key_sets in two halves, for callers that digest the sets in
/// parallel: chaining every set's set_digest gives the same fingerprint.
[[nodiscard]] std::uint64_t set_digest(std::span<const key_t> keys);
[[nodiscard]] std::uint64_t chain_set_digests(
    std::span<const std::uint64_t> in, std::span<const std::uint64_t> out);

}  // namespace kylix
