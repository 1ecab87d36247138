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

std::uint64_t fingerprint_key_sets(std::span<const KeySet> in_sets,
                                   std::span<const KeySet> out_sets) {
  // Seed separates role and shape: a workload where some rank's in and out
  // sets swap must not collide. Keys are already well-mixed (splitmix64
  // outputs), so one mix per key suffices to make the chain order-sensitive.
  std::uint64_t h = mix64(0x6b796c6978ULL ^ (in_sets.size() << 1) ^
                          out_sets.size());
  for (const KeySet& set : in_sets) {
    h = mix64(h ^ set.size());
    for (const key_t key : set) h = mix64(h ^ key);
  }
  h = mix64(h ^ 0x9e3779b97f4a7c15ULL);
  for (const KeySet& set : out_sets) {
    h = mix64(h ^ set.size());
    for (const key_t key : set) h = mix64(h ^ key);
  }
  return h == 0 ? 1 : h;  // reserve 0 for "no fingerprint"
}

}  // namespace kylix
