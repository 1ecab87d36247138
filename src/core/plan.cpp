#include "core/plan.hpp"

#include "comm/packet.hpp"
#include "common/hash.hpp"

namespace kylix {

std::vector<ScheduledMessage> CollectivePlan::message_schedule() const {
  std::vector<ScheduledMessage> schedule;
  const auto round = [&](Phase phase, std::uint16_t layer) {
    for (rank_t r = 0; r < ranks_.size(); ++r) {
      const RankPlan& rp = ranks_[r];
      if (!rp.configured || rp.layers.size() < layer) continue;
      const PlanLayer& cfg = rp.layers[layer - 1];
      for (std::size_t q = 0; q < cfg.group.size(); ++q) {
        const std::size_t elements =
            phase == Phase::kConfig
                ? (cfg.in_split[q + 1] - cfg.in_split[q]) +
                      (cfg.out_split[q + 1] - cfg.out_split[q])
                : cfg.piece(phase, q);
        schedule.push_back({phase, layer, r, cfg.group[q], elements});
      }
    }
  };
  // Downward phases in round order, then the upward retrace, matching the
  // order SparseAllreduce/ReduceExecutor drive the engine.
  const std::uint16_t l = topo_.num_layers();
  for (std::uint16_t layer = 1; layer <= l; ++layer) {
    round(Phase::kConfig, layer);
  }
  for (std::uint16_t layer = 1; layer <= l; ++layer) {
    round(Phase::kReduceDown, layer);
  }
  for (std::uint16_t layer = l; layer >= 1; --layer) {
    round(Phase::kReduceUp, layer);
  }
  return schedule;
}

std::uint64_t CollectivePlan::reduce_wire_bytes(std::size_t value_bytes,
                                                std::uint32_t stride) const {
  std::uint64_t bytes = 0;
  const std::uint16_t l = topo_.num_layers();
  for (const RankPlan& rp : ranks_) {
    if (!rp.configured || rp.layers.size() < l) continue;
    for (std::uint16_t layer = 1; layer <= l; ++layer) {
      const PlanLayer& cfg = rp.layers[layer - 1];
      for (std::size_t q = 0; q < cfg.group.size(); ++q) {
        const std::uint64_t down = cfg.piece(Phase::kReduceDown, q) *
                                   value_bytes * std::uint64_t{stride};
        const std::uint64_t up = cfg.piece(Phase::kReduceUp, q) *
                                 value_bytes * std::uint64_t{stride};
        // Letter-at-once accounting with per-frame headers: an oversized
        // piece pays one header per wire frame, matching
        // Packet::wire_bytes(). (A streamed replay pays at least this much;
        // its exact header count depends on the chunk schedule and is read
        // off the Trace instead.)
        bytes += (wire_frames(down) + wire_frames(up)) * kPacketHeaderBytes +
                 down + up;
      }
    }
  }
  return bytes;
}

/// Digest of one key set. Key p feeds lane p mod kLanes with one
/// xor-multiply-xorshift step, so the lanes are independent dependency
/// chains the core overlaps, not one mix64 chain through every key. Keys
/// are already well-mixed (splitmix64 outputs), so one step per key is
/// enough; the shift folds the product's high bits back down, so a
/// difference in the top bit cannot cancel across two keys of a lane.
/// Each step is a bijection of both the lane and the key, so changing any
/// single key always changes its lane. The lanes are folded, in lane
/// order, with the set's length through mix64.
std::uint64_t set_digest(std::span<const key_t> keys) {
  constexpr std::size_t kLanes = 8;
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;  // odd
  std::uint64_t lanes[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j) lanes[j] = mix64(j);
  const auto step = [](std::uint64_t lane, key_t key) {
    lane = (lane ^ key) * kMul;
    return lane ^ (lane >> 32);
  };
  const std::size_t n = keys.size();
  std::size_t p = 0;
  for (; p + kLanes <= n; p += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      lanes[j] = step(lanes[j], keys[p + j]);
    }
  }
  for (std::size_t j = 0; p < n; ++j, ++p) lanes[j] = step(lanes[j], keys[p]);
  std::uint64_t h = mix64(n);
  for (const std::uint64_t lane : lanes) h = mix64(h ^ lane);
  return h;
}

/// The chain behind both fingerprint forms. Its seed holds both set
/// counts and a separator splits the roles, so a workload whose in and out
/// sets swap does not collide; the digests go in rank order.
template <typename InDigest, typename OutDigest>
static std::uint64_t chain(std::size_t ins, std::size_t outs, InDigest in,
                           OutDigest out) {
  std::uint64_t h = mix64(0x6b796c6978ULL ^ (ins << 1) ^ outs);
  for (std::size_t r = 0; r < ins; ++r) h = mix64(h ^ in(r));
  h = mix64(h ^ 0x9e3779b97f4a7c15ULL);
  for (std::size_t r = 0; r < outs; ++r) h = mix64(h ^ out(r));
  return h == 0 ? 1 : h;  // reserve 0 for "no fingerprint"
}

std::uint64_t chain_set_digests(std::span<const std::uint64_t> in,
                                std::span<const std::uint64_t> out) {
  return chain(in.size(), out.size(), [&](std::size_t r) { return in[r]; },
               [&](std::size_t r) { return out[r]; });
}

std::uint64_t fingerprint_key_sets(std::span<const KeySet> in_sets,
                                   std::span<const KeySet> out_sets) {
  return chain(
      in_sets.size(), out_sets.size(),
      [&](std::size_t r) { return set_digest(in_sets[r].keys()); },
      [&](std::size_t r) { return set_digest(out_sets[r].keys()); });
}

}  // namespace kylix
