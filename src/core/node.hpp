// Per-machine configuration compiler for the nested sparse allreduce
// (§III-A).
//
// A KylixNode owns one machine's view of the butterfly while configuring:
// its in/out index sets at every node layer. It exposes one produce/consume
// step per configuration round, so any engine satisfying the concept in
// comm/parallel.hpp can drive it, and writes the routing state it derives —
// group, split boundaries, the f/g positional maps, received-piece sizes,
// the bottom map and the upward watermark — straight into its RankPlan slot
// of the CollectivePlan being compiled (core/plan.hpp). Value traffic is
// never the node's job: every reduce is a plan replay (core/executor.hpp).
//
//   configuration (down): partition in/out sets into the d_i hashed key
//     subranges of the current range, send piece q to the group member whose
//     digit is q, union arriving pieces (tree merge) and record maps.
//
// Combined mode (minibatch, §III): configuration letters also carry values,
// and config_consume scatter-combines them into one down buffer — the
// executor's own per-rank buffer (ReplayScratch), so the configuration pass
// doubles as the scatter-reduce and the executor's up half finishes the
// reduction in place. The contribution is moved into the lane, not copied:
// the layer-1 config_produce slices its letters straight out of the
// caller's vector and then hands that buffer to the lane's result slot.
//
// Allocation discipline: all transient key storage (letter shells, piece
// vectors, merge workspaces) lives in a caller-owned NodeScratch that
// survives across rounds and node rebuilds, so repeated configure passes
// reuse warmed buffers. Consumed packet buffers are recycled through pools
// (keys in NodeScratch, values in the ReplayScratch) and handed back to
// produced letters.
//
// Fault tolerance hook: a missing letter (dead unreplicated sender) is
// treated as an empty piece, so the protocol always terminates; correctness
// under failures is the replication layer's job.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "comm/packet.hpp"
#include "core/plan.hpp"
#include "core/replay_node.hpp"
#include "core/topology.hpp"
#include "sparse/merge.hpp"
#include "sparse/ops.hpp"

namespace kylix {

/// Reusable working storage for a KylixNode. Stable across rounds; pass the
/// same scratch to successive nodes of the same rank (as SparseAllreduce
/// does) so repeated configure passes reuse warmed buffers too. All buffers
/// only ever grow.
template <typename V>
struct NodeScratch {
  MergeScratch merge;
  UnionResult in_union;
  UnionResult out_union;
  std::vector<std::span<const key_t>> key_spans;
  std::vector<std::vector<key_t>> in_pieces;
  std::vector<std::vector<key_t>> out_pieces;
  std::vector<std::vector<V>> value_pieces;  ///< combined mode
  std::vector<std::vector<Letter<V>>> letters;  ///< per comm layer shells
  std::vector<std::vector<key_t>> key_pool;  ///< recycled packet key buffers
};

template <typename V, typename Op = OpSum>
class KylixNode {
 public:
  /// `topology` must outlive the node. `in0`/`out0` are this machine's
  /// requested and contributed index sets (§III properties 1-2). `slot` is
  /// this machine's entry of the plan being compiled and `scratch` its
  /// warmed working storage; neither is owned, both must outlive the node.
  KylixNode(const Topology* topology, rank_t rank, KeySet in0, KeySet out0,
            RankPlan* slot, NodeScratch<V>* scratch)
      : topo_(topology), rank_(rank), slot_(slot), scratch_(scratch) {
    KYLIX_CHECK(rank < topo_->num_machines());
    KYLIX_CHECK(slot_ != nullptr && scratch_ != nullptr);
    const std::uint16_t l = topo_->num_layers();
    // The requested set lives in the plan (result alignment, loss report);
    // in_sets_[0] stays empty and in_set(0) reads it from there.
    slot_->in0 = std::move(in0);
    in_sets_.resize(l + 1);
    out_sets_.resize(l + 1);
    out_sets_[0] = std::move(out0);
    slot_->layers.resize(l);
    for (std::uint16_t i = 1; i <= l; ++i) {
      slot_->layers[i - 1].group = topo_->group(i, rank_);
    }
    if (scratch_->letters.size() < l) scratch_->letters.resize(l);
  }

  [[nodiscard]] rank_t rank() const { return rank_; }

  /// Group members (including self) at `layer` — the expected senders of
  /// every round at that layer. Computed once at construction.
  [[nodiscard]] const std::vector<rank_t>& expected(
      std::uint16_t layer) const {
    return slot_->layers[layer - 1].group;
  }

  /// Combined configure+reduce: configuration letters carry this machine's
  /// contribution (aligned with out_set(0)), moved into `lane` — the rank's
  /// replay buffers (not owned; used until the last config round), whose
  /// down buffer holds the fully reduced bottom out-values after the last
  /// round, ready for the executor's up half. Call before the first round.
  void set_combined(ReplayScratch<V>& lane, std::vector<V>& out_values) {
    KYLIX_CHECK_MSG(out_values.size() == out_sets_[0].size(),
                    "machine " << rank_ << " contributes "
                               << out_values.size() << " values, expected "
                               << out_sets_[0].size()
                               << " (one per key of its out set)");
    lane_ = &lane;
    ReplayOps<V, Op>::load_input(lane, out_values);
  }

  // ---- configuration, downward ----

  [[nodiscard]] std::vector<Letter<V>>& config_produce(std::uint16_t layer) {
    PlanLayer& cfg = slot_->layers[layer - 1];
    const auto d = static_cast<std::uint32_t>(cfg.group.size());
    const KeyRange range = topo_->key_range(layer - 1, rank_);
    const KeySet& in_prev = in_set(layer - 1);
    const KeySet& out_prev = out_sets_[layer - 1];
    cfg.in_split = in_prev.split_points(range, d);
    cfg.out_split = out_prev.split_points(range, d);

    std::vector<Letter<V>>& letters = scratch_->letters[layer - 1];
    letters.resize(d);
    for (std::uint32_t q = 0; q < d; ++q) {
      Letter<V>& letter = letters[q];
      letter.src = rank_;
      letter.dst = cfg.group[q];
      pool_refill(scratch_->key_pool, letter.packet.in_keys);
      pool_refill(scratch_->key_pool, letter.packet.out_keys);
      in_prev.extract_into(cfg.in_split[q], cfg.in_split[q + 1],
                           letter.packet.in_keys);
      out_prev.extract_into(cfg.out_split[q], cfg.out_split[q + 1],
                            letter.packet.out_keys);
      if (lane_ != nullptr) {
        // Layer 1 reads the caller's contribution in place (combined mode
        // is flat only); deeper layers read the lane's down buffer.
        const std::vector<V>& source = layer == 1 ? lane_->in : lane_->v;
        pool_refill(lane_->value_pool, letter.packet.values);
        letter.packet.values.assign(
            source.begin() + static_cast<std::ptrdiff_t>(cfg.out_split[q]),
            source.begin() +
                static_cast<std::ptrdiff_t>(cfg.out_split[q + 1]));
      } else {
        letter.packet.values.clear();
      }
      work_.gather_elements +=
          static_cast<double>(letter.packet.in_keys.size() +
                              letter.packet.out_keys.size() +
                              letter.packet.values.size());
    }
    if (lane_ != nullptr && layer == 1) {
      ReplayOps<V, Op>::hand_off_input(*lane_);
    }
    return letters;
  }

  void config_consume(std::uint16_t layer, std::vector<Letter<V>>&& inbox) {
    PlanLayer& cfg = slot_->layers[layer - 1];
    const std::uint32_t d = topo_->degree(layer);
    auto& in_pieces = scratch_->in_pieces;
    auto& out_pieces = scratch_->out_pieces;
    auto& value_pieces = scratch_->value_pieces;
    in_pieces.resize(d);
    out_pieces.resize(d);
    value_pieces.resize(d);
    for (std::uint32_t q = 0; q < d; ++q) {
      in_pieces[q].clear();
      out_pieces[q].clear();
      value_pieces[q].clear();
    }
    for (Letter<V>& letter : inbox) {
      const std::uint32_t q = topo_->digit(layer, letter.src);
      in_pieces[q] = std::move(letter.packet.in_keys);
      out_pieces[q] = std::move(letter.packet.out_keys);
      value_pieces[q] = std::move(letter.packet.values);
    }

    UnionResult& in_union = scratch_->in_union;
    UnionResult& out_union = scratch_->out_union;
    tree_merge_into(spans_of(in_pieces), in_union, scratch_->merge);
    for (const auto& piece : in_pieces) {
      work_.merge_elements += static_cast<double>(piece.size());
    }
    tree_merge_into(spans_of(out_pieces), out_union, scratch_->merge);
    for (const auto& piece : out_pieces) {
      work_.merge_elements += static_cast<double>(piece.size());
    }
    work_.merge_ways = std::max(work_.merge_ways, d);

    cfg.recv_out_sizes.assign(d, 0);
    for (std::uint32_t q = 0; q < d; ++q) {
      cfg.recv_out_sizes[q] = out_pieces[q].size();
    }
    // The f/g maps go to the plan slot, their only copy.
    std::swap(cfg.in_maps, in_union.maps);
    std::swap(cfg.out_maps, out_union.maps);
    cfg.out_union_size = out_union.keys.size();
    cfg.in_prev_size = in_set(layer - 1).size();

    if (lane_ != nullptr) {
      // The lane's v and merged are buffers the executor keeps across
      // replays: they only grow, so a warm executor finds them sized.
      const std::size_t n = out_union.keys.size();
      keep_size(lane_->merged, n);
      const std::span<V> merged = std::span<V>(lane_->merged).first(n);
      std::fill(merged.begin(), merged.end(), Op::template identity<V>());
      for (std::uint32_t q = 0; q < d; ++q) {
        if (!value_pieces[q].empty()) {
          scatter_combine<V, Op>(merged,
                                 std::span<const V>(value_pieces[q]),
                                 cfg.out_maps[q]);
          work_.combine_elements +=
              static_cast<double>(value_pieces[q].size());
        }
        pool_recycle(lane_->value_pool, value_pieces[q]);
      }
      std::swap(lane_->v, lane_->merged);
    }

    in_sets_[layer] = KeySet::from_sorted_keys(std::move(in_union.keys));
    out_sets_[layer] = KeySet::from_sorted_keys(std::move(out_union.keys));
    for (std::uint32_t q = 0; q < d; ++q) {
      pool_recycle(scratch_->key_pool, in_pieces[q]);
      pool_recycle(scratch_->key_pool, out_pieces[q]);
    }
  }

  /// Room in the plan slot for a pooled finish_configure.
  void reserve_finish() {
    const std::uint16_t l = topo_->num_layers();
    slot_->bottom_map.reserve(in_set(l).size());
    slot_->in_sizes.reserve(l + 1);
    slot_->out_sizes.reserve(l + 1);
  }

  /// After the last config layer: locate every bottom in-key inside the
  /// bottom out-keys and complete the plan slot. Throws check_error if some
  /// requested index was never contributed by any machine (the ∪in ⊆ ∪out
  /// precondition of §III) — unless `degraded` (chaos engine, a whole
  /// replica group lost): such indices then resolve to the reduction
  /// identity.
  void finish_configure(bool degraded) {
    const std::uint16_t l = topo_->num_layers();
    const KeySet& in_bottom = in_set(l);
    const KeySet& out_bottom = out_sets_[l];
    PosMap& bottom_map = slot_->bottom_map;
    std::vector<key_t>& missing = slot_->missing_bottom;
    bottom_map.resize(in_bottom.size());
    missing.clear();
    // Both sets are sorted, so locating every in-key is one monotone sweep
    // (O(|in|+|out|)) rather than a binary search per key.
    std::size_t pos = 0;
    for (std::size_t p = 0; p < in_bottom.size(); ++p) {
      const key_t key = in_bottom[p];
      while (pos < out_bottom.size() && out_bottom[pos] < key) ++pos;
      if (pos < out_bottom.size() && out_bottom[pos] == key) {
        bottom_map[p] = static_cast<pos_t>(pos);
        continue;
      }
      KYLIX_CHECK_MSG(degraded,
                      "requested index " << unhash_index(key)
                                         << " was contributed by no machine");
      // Degraded completion: the contributor's replica group is gone; this
      // position of the result resolves to the reduction identity.
      bottom_map[p] = kMissingPos;
      missing.push_back(key);
    }
    slot_->out0_size = out_sets_[0].size();
    slot_->in_sizes.resize(l + 1);
    slot_->out_sizes.resize(l + 1);
    for (std::uint16_t i = 0; i <= l; ++i) {
      slot_->in_sizes[i] = in_set(i).size();
      slot_->out_sizes[i] = out_sets_[i].size();
    }
    slot_->configured = true;
  }

  // ---- introspection ----

  [[nodiscard]] const KeySet& in_set(std::uint16_t node_layer) const {
    return node_layer == 0 ? slot_->in0 : in_sets_[node_layer];
  }
  [[nodiscard]] const KeySet& out_set(std::uint16_t node_layer) const {
    return out_sets_[node_layer];
  }

  [[nodiscard]] NodeWork take_work() {
    return std::exchange(work_, NodeWork{});
  }

 private:
  [[nodiscard]] std::span<const std::span<const key_t>> spans_of(
      const std::vector<std::vector<key_t>>& pieces) {
    auto& spans = scratch_->key_spans;
    spans.clear();
    for (const auto& piece : pieces) spans.emplace_back(piece);
    return spans;
  }

  const Topology* topo_;
  rank_t rank_;
  RankPlan* slot_;            ///< this rank's entry of the plan being built
  NodeScratch<V>* scratch_;
  ReplayScratch<V>* lane_ = nullptr;  ///< combined mode: the value buffers

  std::vector<KeySet> in_sets_;   ///< node layers 1..l (0 is slot_->in0)
  std::vector<KeySet> out_sets_;  ///< node layers 0..l
  NodeWork work_;
};

}  // namespace kylix
