// Wire units exchanged between simulated machines.
//
// A Packet carries index keys (configuration), values (reduction), or both
// (the combined configure+reduce mode used for minibatch workloads, §III).
// wire_bytes() is what the timing model charges: 8 bytes per key, sizeof(V)
// per value, plus a fixed header per wire frame — matching the paper's 12
// bytes-per-element accounting for key+float traffic. A payload larger than
// one frame pays one header per frame, so oversized letters no longer ride
// on a single header (exactly the regime Fig. 2's utilization curve models).
//
// Streaming (DESIGN §9): a letter may be one chunk of a larger logical
// letter. chunk_index/chunk_count frame the split; every chunk is its own
// Packet and therefore pays its own header(s). The engine orders inboxes
// by (src, chunk_index), never by arrival, so eager per-chunk combining stays
// bit-identical to letter-at-once delivery.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/trace.hpp"
#include "common/types.hpp"

namespace kylix {

/// Fixed framing cost per wire frame.
inline constexpr std::uint64_t kPacketHeaderBytes = 32;

/// Payload bytes one header covers. A packet of P payload bytes occupies
/// ceil(P / kWireFrameBytes) frames (min 1) and is charged a header each.
inline constexpr std::uint64_t kWireFrameBytes = 256 * 1024;

/// Frames (== headers charged) for a payload of `payload_bytes`.
[[nodiscard]] inline std::uint64_t wire_frames(std::uint64_t payload_bytes) {
  return payload_bytes <= kWireFrameBytes
             ? 1
             : (payload_bytes + kWireFrameBytes - 1) / kWireFrameBytes;
}

template <typename V>
struct Packet {
  std::vector<key_t> in_keys;   ///< configuration: indices requested
  std::vector<key_t> out_keys;  ///< configuration: indices contributed
  std::vector<V> values;        ///< reduction payload (aligned to out_keys
                                ///< in combined mode)
  /// Multi-payload stride: `stride` value vectors interleaved key-major, so
  /// values carries stride x piece_elements() entries routed by one key set.
  /// Keys are never repeated per payload — that is the amortization the
  /// strided reduce exists for.
  std::uint32_t stride = 1;
  /// Streaming chunk framing: this packet is chunk `chunk_index` of
  /// `chunk_count` the logical letter was split into. Letter-at-once
  /// packets are the degenerate 1-chunk split (0 of 1).
  std::uint32_t chunk_index = 0;
  std::uint32_t chunk_count = 1;

  /// Logical piece length in key positions (what the configured piece sizes
  /// are checked against, independent of how many payloads ride along).
  [[nodiscard]] std::size_t piece_elements() const {
    return stride <= 1 ? values.size() : values.size() / stride;
  }

  [[nodiscard]] std::uint64_t payload_bytes() const {
    return 8 * (in_keys.size() + out_keys.size()) + sizeof(V) * values.size();
  }

  [[nodiscard]] std::uint64_t wire_bytes() const {
    const std::uint64_t payload = payload_bytes();
    return wire_frames(payload) * kPacketHeaderBytes + payload;
  }
};

/// An addressed packet. `src`/`dst` are ranks in whatever space the engine
/// operates on (logical for the replication wrapper, physical otherwise).
template <typename V>
struct Letter {
  rank_t src = 0;
  rank_t dst = 0;
  Packet<V> packet;
};

/// Canonical inbox order: ascending (src, chunk_index). The engine sorts
/// with this before consume, so the per-position combine order — and hence
/// every floating-point sum — is independent of delivery order and of
/// whether letters were chunked at all.
template <typename V>
[[nodiscard]] inline bool letter_before(const Letter<V>& a,
                                        const Letter<V>& b) {
  if (a.src != b.src) return a.src < b.src;
  return a.packet.chunk_index < b.packet.chunk_index;
}

/// True when two letters occupy the same delivery slot (same logical letter
/// chunk): the supersede rule for delayed-letter redelivery — a delayed
/// chunk is stale only if a fresh copy of the *same chunk* already arrived.
template <typename V>
[[nodiscard]] inline bool same_slot(const Letter<V>& a, const Letter<V>& b) {
  return a.src == b.src && a.packet.chunk_index == b.packet.chunk_index;
}

}  // namespace kylix
