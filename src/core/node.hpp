// Per-machine configuration compiler for the nested sparse allreduce
// (§III-A).
//
// A KylixNode owns one machine's part of the configuration pass. Its owner
// (SparseAllreduce::configure_pass) runs it in pooled stages around the
// config rounds, as a replay runs around its rounds:
//
//   pack -> round 1 -> unite -> round 2 -> unite -> ... -> unite -> finish
//
// The pack splits the caller's in/out sets over the d_1 hashed key
// subranges, one task per letter: the only copy of keys the pass makes. A
// round's callbacks only hand letters over and park the arriving pieces;
// they count the modeled NodeWork, charged in rank order. unite, one task
// per rank, cuts each parked piece at the next layer's subranges and
// merges subrange j straight into the rank's j-th letter of the next
// round, each piece's f/g map written in place at the subrange's base
// position; the bases are the next layer's split. The last layer's union
// is the bottom set. All routing state goes straight into the node's
// RankPlan slot (core/plan.hpp); a node keeps only its layer-0 and bottom
// sets, so intermediate sets live only in letters, their sizes in the
// plan. Value traffic is never the node's job: every reduce is a plan
// replay (core/executor.hpp).
//
// Combined mode (minibatch, §III): configuration letters also carry values,
// and unite scatter-combines them into one down buffer — the executor's
// own per-rank buffer (ReplayScratch), so the configuration pass doubles
// as the scatter-reduce and the executor's up half finishes the reduction
// in place. Produce copies each letter's values out of that buffer, or at
// layer 1 out of the caller's vector, which it then hands to the lane's
// result slot.
//
// Allocation discipline: letter shells, parked pieces and merge workspaces
// live in a caller-owned NodeScratch that survives across rounds and node
// rebuilds; consumed packet buffers return to pools (keys in NodeScratch,
// values in the ReplayScratch) and are handed back to produced letters.
//
// Fault tolerance hook: a missing letter (dead unreplicated sender) is an
// empty piece, so the protocol always terminates; correctness under
// failures is the replication layer's job. A rank dead in a round unites
// nothing and readies empty letters, which it sends if revived.
#pragma once

#include <algorithm>
#include <span>
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
  std::vector<std::span<const key_t>> key_spans;  ///< one union's inputs
  std::vector<std::span<pos_t>> map_spans;        ///< and their maps
  std::vector<std::size_t> cuts;  ///< piece positions at subrange bounds
  std::vector<std::vector<key_t>> in_pieces;   ///< parked, by sender digit
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
      : topo_(topology),
        rank_(rank),
        slot_(slot),
        scratch_(scratch),
        out0_(std::move(out0)) {
    KYLIX_CHECK(rank < topo_->num_machines());
    KYLIX_CHECK(slot_ != nullptr && scratch_ != nullptr);
    const std::uint16_t l = topo_->num_layers();
    // The requested set lives in the plan (result alignment, loss report);
    // in_set(0) reads it from there.
    slot_->in0 = std::move(in0);
    slot_->in_sizes.assign(l + 1, 0);
    slot_->out_sizes.assign(l + 1, 0);
    slot_->in_sizes[0] = slot_->in0.size();
    slot_->out_sizes[0] = out0_.size();
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
    KYLIX_CHECK_MSG(out_values.size() == out0_.size(),
                    "machine " << rank_ << " contributes "
                               << out_values.size() << " values, expected "
                               << out0_.size()
                               << " (one per key of its out set)");
    lane_ = &lane;
    ReplayOps<V, Op>::load_input(lane, out_values);
  }

  // ---- configuration, downward ----

  /// The pack stage on the driving thread: split the caller's sets over
  /// layer 1's subranges and ready round 1's letters for pack(q).
  void plan_pack() {
    PlanLayer& cfg = slot_->layers[0];
    const auto d = static_cast<std::uint32_t>(cfg.group.size());
    cfg.in_split = slot_->in0.split_points(KeyRange::full(), d);
    cfg.out_split = out0_.split_points(KeyRange::full(), d);
    ready_letters(1);
  }

  /// The pack stage's task: copy letter q's keys.
  void pack(std::uint32_t q) {
    const PlanLayer& cfg = slot_->layers[0];
    Packet<V>& packet = scratch_->letters[0][q].packet;
    slot_->in0.extract_into(cfg.in_split[q], cfg.in_split[q + 1],
                            packet.in_keys);
    out0_.extract_into(cfg.out_split[q], cfg.out_split[q + 1],
                       packet.out_keys);
  }

  /// Round `layer`'s produce: hand over the letters the stage before the
  /// round filled, with their values in combined mode.
  [[nodiscard]] std::vector<Letter<V>>& config_produce(std::uint16_t layer) {
    const PlanLayer& cfg = slot_->layers[layer - 1];
    const auto d = static_cast<std::uint32_t>(cfg.group.size());
    std::vector<Letter<V>>& letters = scratch_->letters[layer - 1];
    for (std::uint32_t q = 0; q < d; ++q) {
      Packet<V>& packet = letters[q].packet;
      if (lane_ != nullptr) {
        // Layer 1 reads the caller's contribution in place (combined mode
        // is flat only); deeper layers read the lane's down buffer.
        const std::vector<V>& source = layer == 1 ? lane_->in : lane_->v;
        pool_refill(lane_->value_pool, packet.values);
        packet.values.assign(
            source.begin() + static_cast<std::ptrdiff_t>(cfg.out_split[q]),
            source.begin() +
                static_cast<std::ptrdiff_t>(cfg.out_split[q + 1]));
      } else {
        packet.values.clear();
      }
      work_.gather_elements += static_cast<double>(
          packet.in_keys.size() + packet.out_keys.size() +
          packet.values.size());
    }
    if (lane_ != nullptr && layer == 1) {
      ReplayOps<V, Op>::hand_off_input(*lane_);
    }
    return letters;
  }

  /// Round `layer`'s consume: park the arriving pieces by sender digit for
  /// unite() and count the layer's modeled work.
  void config_consume(std::uint16_t layer, std::vector<Letter<V>>&& inbox) {
    PlanLayer& cfg = slot_->layers[layer - 1];
    const std::uint32_t d = topo_->degree(layer);
    NodeScratch<V>& s = *scratch_;
    s.in_pieces.resize(d);
    s.out_pieces.resize(d);
    s.value_pieces.resize(d);
    for (std::uint32_t q = 0; q < d; ++q) {
      s.in_pieces[q].clear();
      s.out_pieces[q].clear();
      s.value_pieces[q].clear();
    }
    for (Letter<V>& letter : inbox) {
      const std::uint32_t q = topo_->digit(layer, letter.src);
      s.in_pieces[q] = std::move(letter.packet.in_keys);
      s.out_pieces[q] = std::move(letter.packet.out_keys);
      s.value_pieces[q] = std::move(letter.packet.values);
    }
    cfg.recv_out_sizes.resize(d);
    for (std::uint32_t q = 0; q < d; ++q) {
      // Integer-valued sums: exact in any order.
      work_.merge_elements += static_cast<double>(s.in_pieces[q].size() +
                                                  s.out_pieces[q].size());
      work_.combine_elements += static_cast<double>(s.value_pieces[q].size());
      cfg.recv_out_sizes[q] = s.out_pieces[q].size();
    }
    work_.merge_ways = std::max(work_.merge_ways, d);
    cfg.in_prev_size = slot_->in_sizes[layer - 1];
    parked_ = layer;
  }

  /// The union stage after round `layer`, one pool task per rank: unite
  /// what config_consume parked into the next round's letters or, after
  /// the last round, the bottom sets.
  void unite(std::uint16_t layer) {
    const bool bottom = layer == topo_->num_layers();
    if (!bottom) ready_letters(layer + 1);
    if (parked_ != layer) {
      // Dead in the round: it sent nothing, and if revived for the next
      // round it sends empty pieces there.
      slot_->layers[layer - 1].in_split.clear();
      slot_->layers[layer - 1].out_split.clear();
      if (!bottom) {
        const std::size_t dn = topo_->degree(layer + 1);
        slot_->layers[layer].in_split.assign(dn + 1, 0);
        slot_->layers[layer].out_split.assign(dn + 1, 0);
      }
      return;
    }
    PlanLayer& cfg = slot_->layers[layer - 1];
    NodeScratch<V>& s = *scratch_;
    const KeyRange range = topo_->key_range(layer, rank_);
    for (std::uint32_t q = 0; q < s.in_pieces.size(); ++q) {
      for (const auto* piece : {&s.in_pieces[q], &s.out_pieces[q]}) {
        // Sorted pieces: the first and last keys tell.
        KYLIX_CHECK_MSG(piece->empty() || (range.contains(piece->front()) &&
                                           range.contains(piece->back())),
                        "configuration piece holds keys outside the "
                        "receiving rank's key range");
      }
    }
    slot_->in_sizes[layer] = unite_side(layer, true, cfg.in_maps);
    const std::size_t n = unite_side(layer, false, cfg.out_maps);
    slot_->out_sizes[layer] = n;
    cfg.out_union_size = n;
    if (lane_ != nullptr) {
      // The lane's v and merged are buffers the executor keeps across
      // replays: they only grow, so a warm executor finds them sized.
      keep_size(lane_->merged, n);
      const std::span<V> merged = std::span<V>(lane_->merged).first(n);
      std::fill(merged.begin(), merged.end(), Op::template identity<V>());
      for (std::uint32_t q = 0; q < s.value_pieces.size(); ++q) {
        if (!s.value_pieces[q].empty()) {
          scatter_combine<V, Op>(merged,
                                 std::span<const V>(s.value_pieces[q]),
                                 cfg.out_maps[q]);
        }
        pool_recycle(lane_->value_pool, s.value_pieces[q]);
      }
      std::swap(lane_->v, lane_->merged);
    }
    for (std::uint32_t q = 0; q < s.in_pieces.size(); ++q) {
      pool_recycle(s.key_pool, s.in_pieces[q]);
      pool_recycle(s.key_pool, s.out_pieces[q]);
    }
  }

  /// Room in the plan slot for a pooled finish_configure.
  void reserve_finish() {
    slot_->bottom_map.reserve(in_set(topo_->num_layers()).size());
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
    const KeySet& out_bottom = out_set(l);
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
    slot_->out0_size = out0_.size();
    slot_->configured = true;
  }

  // ---- introspection ----

  /// This machine's sets at node layer 0 and at the bottom (layer l). Other
  /// layers throw check_error: their sets only ever lived in letters.
  [[nodiscard]] const KeySet& in_set(std::uint16_t node_layer) const {
    return node_layer == 0 ? slot_->in0 : bottom(node_layer, in_bottom_);
  }
  [[nodiscard]] const KeySet& out_set(std::uint16_t node_layer) const {
    return node_layer == 0 ? out0_ : bottom(node_layer, out_bottom_);
  }

  [[nodiscard]] NodeWork take_work() {
    return std::exchange(work_, NodeWork{});
  }

 private:
  [[nodiscard]] const KeySet& bottom(std::uint16_t node_layer,
                                     const KeySet& set) const {
    KYLIX_CHECK_MSG(node_layer == topo_->num_layers(),
                    "node layer " << node_layer << " set: a node keeps its "
                                  << "layer-0 and bottom sets only; read "
                                     "RankPlan::in_sizes / out_sizes");
    return set;
  }

  /// Round `layer`'s letter shells, addressed, with empty pooled keys.
  void ready_letters(std::uint16_t layer) {
    const std::vector<rank_t>& group = slot_->layers[layer - 1].group;
    std::vector<Letter<V>>& letters = scratch_->letters[layer - 1];
    letters.resize(group.size());
    for (std::size_t q = 0; q < group.size(); ++q) {
      letters[q].src = rank_;
      letters[q].dst = group[q];
      for (auto* keys : {&letters[q].packet.in_keys,
                         &letters[q].packet.out_keys}) {
        pool_refill(scratch_->key_pool, *keys);
        keys->clear();
      }
    }
  }

  /// Unite one side (in or out) of round `layer`'s parked pieces, each
  /// piece's map written once, in place, into `maps`; returns the union's
  /// size. At the last layer the union is the bottom set. Above it, piece
  /// q is cut at the next layer's subranges of this rank's range (its part
  /// j is [cut[j], cut[j+1])), subrange j merges into letter j of the next
  /// round at base position split[j], and the bases are that layer's split.
  /// unite() has checked that every piece lies inside the range, so the
  /// last part ends where the piece does.
  std::size_t unite_side(std::uint16_t layer, bool in_side,
                         std::vector<PosMap>& maps) {
    NodeScratch<V>& s = *scratch_;
    const auto& pieces = in_side ? s.in_pieces : s.out_pieces;
    const auto d = static_cast<std::uint32_t>(pieces.size());
    maps.resize(d);
    for (std::uint32_t q = 0; q < d; ++q) maps[q].resize(pieces[q].size());
    if (layer == topo_->num_layers()) {
      s.key_spans.assign(pieces.begin(), pieces.end());
      s.map_spans.assign(maps.begin(), maps.end());
      std::vector<key_t> keys;
      pool_refill(s.key_pool, keys);
      tree_merge_into(s.key_spans, keys, s.map_spans, 0, s.merge);
      KeySet& set = in_side ? in_bottom_ : out_bottom_;
      set = KeySet::from_sorted_keys(std::move(keys));
      return set.size();
    }
    const std::uint32_t dn = topo_->degree(layer + 1);
    const KeyRange range = topo_->key_range(layer, rank_);
    s.cuts.resize(std::size_t{d} * (dn + 1));
    for (std::uint32_t q = 0; q < d; ++q) {
      std::size_t* cut = &s.cuts[std::size_t{q} * (dn + 1)];
      const auto begin = pieces[q].begin();
      cut[0] = 0;
      for (std::uint32_t j = 1; j < dn; ++j) {
        cut[j] = static_cast<std::size_t>(
            std::lower_bound(begin + cut[j - 1], pieces[q].end(),
                             range.subrange(j, dn).lo) -
            begin);
      }
      cut[dn] = pieces[q].size();
    }
    PlanLayer& next = slot_->layers[layer];
    std::vector<std::size_t>& split = in_side ? next.in_split : next.out_split;
    split.assign(dn + 1, 0);
    for (std::uint32_t j = 0; j < dn; ++j) {
      s.key_spans.clear();
      s.map_spans.clear();
      for (std::uint32_t q = 0; q < d; ++q) {
        const std::size_t* cut = &s.cuts[std::size_t{q} * (dn + 1)];
        const std::size_t n = cut[j + 1] - cut[j];
        s.key_spans.push_back(
            std::span<const key_t>(pieces[q]).subspan(cut[j], n));
        s.map_spans.push_back(std::span<pos_t>(maps[q]).subspan(cut[j], n));
      }
      Packet<V>& packet = s.letters[layer][j].packet;
      std::vector<key_t>& keys = in_side ? packet.in_keys : packet.out_keys;
      tree_merge_into(s.key_spans, keys, s.map_spans,
                      static_cast<pos_t>(split[j]), s.merge);
      KeySet::check_strictly_increasing(keys);
      split[j + 1] = split[j] + keys.size();
    }
    return split[dn];
  }

  const Topology* topo_;
  rank_t rank_;
  RankPlan* slot_;            ///< this rank's entry of the plan being built
  NodeScratch<V>* scratch_;
  ReplayScratch<V>* lane_ = nullptr;  ///< combined mode: the value buffers

  KeySet out0_;       ///< node layer 0 (in0 lives in the slot)
  KeySet in_bottom_;  ///< node layer l >= 1
  KeySet out_bottom_;
  std::uint16_t parked_ = 0;  ///< the round whose pieces wait for unite()
  NodeWork work_;
};

}  // namespace kylix
