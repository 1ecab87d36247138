// Shared per-rank replay kernels for compiled CollectivePlans.
//
// ReduceExecutor (core/executor.hpp) drives these kernels for every replay,
// the async executor's streams included (core/async_executor.hpp). This
// header is the single definition of what one rank does at one layer —
// slice by out_split, scatter_combine by out_maps in ascending sender
// digit, bottom gather, gather by in_maps — plus the chunk framing
// (DESIGN §9), the buffer economy, and the replay setup and close: the
// context, the admission checks, result collection and NodeWork, whose
// element counts the async timeline pricer charges without running a
// kernel.
//
// ReplayScratch is every rank's one home for value buffers — combined
// configure+reduce scatter-reduces into it too (core/node.hpp): the
// caller's contribution, letter shells per layer, recycled value pools,
// ping-pong merge/below buffers, pooled block-watermark scratch, and the
// spent list that returns consumed buffers to their sender's pool at a
// quiescent point. The contribution is never copied: load_input moves the
// caller's vector into `in`, the first stage that needs it reads it there
// (layer-1 produce on flat plans, layer-1 config_produce in combined mode,
// begin_up when there is no layer), and hand_off_input then moves that
// buffer into the rank's empty result slot (intra_down on hierarchical
// plans hands it off first and folds it from there) — one buffer in and
// one out per rank and reduce, none of them parked in
// a pool. Warm replays allocate nothing inside the rounds
// (tests/core/alloc_test).
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "cluster/netmodel.hpp"
#include "comm/packet.hpp"
#include "core/plan.hpp"
#include "core/stream_stats.hpp"
#include "sparse/ops.hpp"

namespace kylix {

/// Modeled local work performed since the last charge; the driver converts
/// it to seconds via ComputeModel.
struct NodeWork {
  double merge_elements = 0;
  std::uint32_t merge_ways = 1;
  double combine_elements = 0;
  double gather_elements = 0;

  [[nodiscard]] double seconds(const ComputeModel& compute) const {
    return compute.merge_time(merge_elements, merge_ways) +
           compute.combine_time(combine_elements) +
           compute.gather_time(gather_elements);
  }
};

/// Hand a recycled buffer to an empty shell so the following assign()
/// reuses warmed capacity instead of allocating.
template <typename T>
void pool_refill(std::vector<std::vector<T>>& pool, std::vector<T>& buf) {
  if (buf.capacity() == 0 && !pool.empty()) {
    buf = std::move(pool.back());
    pool.pop_back();
    buf.clear();
  }
}

/// Room for `n` values in `buf`, whose contents are dead, so growing it
/// copies nothing. Pooled stages call it on the driving thread first: the
/// workers that fill `buf` then never allocate.
template <typename T>
void reserve_fresh(std::vector<T>& buf, std::size_t n) {
  if (buf.capacity() < n) {
    buf.clear();
    buf.reserve(n);
  }
}

/// Return a spent buffer's capacity to `pool` (empty buffers are dropped).
template <typename T>
void pool_recycle(std::vector<std::vector<T>>& pool, std::vector<T>& buf) {
  if (buf.capacity() > 0) pool.push_back(std::move(buf));
}

/// Everything a replay kernel needs to know about the reduce in flight.
/// Frozen at the top of a reduce (and at bind for the async executor's
/// letter schedule) by ReplayOps::context; one plan serves every value type
/// and stride because the payload-bytes -> key-positions conversion happens
/// there, not at compile time.
struct ReplayContext {
  const CollectivePlan* plan = nullptr;
  std::uint32_t stride = 1;
  /// Chunk length in key positions (0 means letter-at-once).
  std::size_t chunk_positions = 0;

  /// Letters a piece of `positions` key positions is sent as (>= 1: empty
  /// pieces still send one letter so blocking receives stay balanced).
  [[nodiscard]] std::uint32_t chunks(std::size_t positions) const {
    if (chunk_positions == 0 || positions <= chunk_positions) return 1;
    return static_cast<std::uint32_t>((positions + chunk_positions - 1) /
                                      chunk_positions);
  }
  /// Key positions chunk `c` of a `piece`-position piece carries; it starts
  /// at piece position c * chunk_positions.
  [[nodiscard]] std::size_t chunk_length(std::size_t piece,
                                         std::uint32_t c) const {
    return chunk_positions == 0
               ? piece
               : std::min(chunk_positions, piece - c * chunk_positions);
  }
};

/// Mutable per-rank value state: the replay's buffers, and in combined mode
/// the configuration pass's down buffer too.
template <typename V>
struct ReplayScratch {
  std::vector<std::vector<Letter<V>>> letters;  ///< per comm layer shells
  std::vector<std::vector<V>> value_pool;       ///< recycled packet buffers
  /// The caller's contribution, read in place by the replay's first stage.
  /// A rank that never reads it (dead at replay, or a member of a host
  /// whose leader is dead) keeps it until the next load_input replaces it.
  std::vector<V> in;
  std::vector<V> v;       ///< downward (scatter-reduce) buffer
  std::vector<V> vin;     ///< upward (allgather) buffer
  std::vector<V> merged;  ///< ping-pong partner
  std::vector<std::uint32_t> last_touch;  ///< block-watermark scratch
  /// Consumed value buffers awaiting return to their sender's pool. Only
  /// the buffers move here — the inbox vector and its letter shells stay
  /// with the engine, which pools them round to round.
  std::vector<std::pair<rank_t, std::vector<V>>> spent;
  NodeWork work;
  StreamStats stream;  ///< this rank's round-local telemetry
};

/// The per-rank replay kernels. All methods are static and take the
/// context + scratch explicitly, so the combined configure+reduce pass can
/// load its inputs into the same per-rank slots the executor replays.
template <typename V, typename Op = OpSum>
struct ReplayOps {
  /// Freeze one replay's context. The chunk size in payload bytes (the
  /// override when nonzero, else the plan's compiled one) becomes key
  /// positions for this value type and stride; letter-at-once (0) unless
  /// `streamed` and some chunk size is known.
  [[nodiscard]] static ReplayContext context(
      const CollectivePlan& plan, std::uint32_t stride, bool streamed,
      std::uint64_t chunk_bytes_override) {
    const std::uint64_t chunk_bytes = chunk_bytes_override != 0
                                          ? chunk_bytes_override
                                          : plan.chunk_bytes();
    ReplayContext ctx{&plan, stride, 0};
    if (streamed && chunk_bytes != 0) {
      ctx.chunk_positions = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 chunk_bytes / (sizeof(V) * std::uint64_t{stride})));
    }
    return ctx;
  }

  /// What every driver checks before loading a reduce: one contribution
  /// per machine, the planned length for each configured rank, and no
  /// alive rank the plan does not cover — such a rank died during
  /// compilation and may only replay while still dead (the configuration
  /// pass's FaultPlan semantics, where an unconfigured node never produces).
  template <typename DeadFn>
  static void check_inputs(const CollectivePlan& plan, std::uint32_t stride,
                           const std::vector<std::vector<V>>& out_values,
                           DeadFn&& dead) {
    KYLIX_CHECK_MSG(out_values.size() == plan.num_ranks(),
                    "out_values has " << out_values.size()
                                      << " entries, expected "
                                      << plan.num_ranks()
                                      << " (one per machine)");
    for (rank_t r = 0; r < plan.num_ranks(); ++r) {
      const RankPlan& rp = plan.rank_plan(r);
      if (!rp.configured) {
        KYLIX_CHECK_MSG(dead(r), "alive rank not covered by the bound plan");
        continue;
      }
      KYLIX_CHECK_MSG(out_values[r].size() == rp.out0_size * stride,
                      "contribution length does not match plan out set");
    }
  }

  /// Take one rank's contribution: the caller's vector moves into `in`,
  /// no value is copied. Its first reader hands the buffer on to the
  /// result slot (hand_off_input), so each reduce takes one buffer in per
  /// rank and gives one back as the result, and no pool grows.
  static void load_input(ReplayScratch<V>& s, std::vector<V>& out_values) {
    s.in = std::move(out_values);
  }

  /// True where the down pass meets the caller's contribution itself: the
  /// values entering comm layer 1 of a flat plan (hierarchical plans fold
  /// it in intra_down first).
  [[nodiscard]] static bool reads_input(const ReplayContext& ctx,
                                        std::uint16_t layer) {
    return layer == 1 && !ctx.plan->hierarchical();
  }

  /// At the first reader: the contribution becomes the rank's result
  /// buffer. The slot is empty — the last result left with the
  /// caller — unless the rank was dead at the last collect, whose stale
  /// buffer this frees. Never pooled: a pooled input grows the pools by
  /// one contribution per rank.
  static void hand_off_input(ReplayScratch<V>& s) {
    s.vin = std::exchange(s.in, {});
  }

  /// Resize a letter-shell vector, recycling the value buffers of shells
  /// about to be destroyed (mode switches shrink the chunk count; their
  /// capacity must flow back to the pool, not to the heap).
  static void resize_letters(ReplayScratch<V>& s,
                             std::vector<Letter<V>>& letters,
                             std::size_t count) {
    for (std::size_t i = count; i < letters.size(); ++i) {
      pool_recycle(s.value_pool, letters[i].packet.values);
    }
    letters.resize(count);
  }

  /// Rank r's letters for one reduce round: for each group member in
  /// ascending digit, its piece — the out_split slice going down, the
  /// in_maps gather coming up — cut into ctx.chunks(piece) letters.
  static std::vector<Letter<V>>& produce(const ReplayContext& ctx,
                                         ReplayScratch<V>& s, rank_t r,
                                         Phase phase, std::uint16_t layer) {
    const PlanLayer& cfg = ctx.plan->rank_plan(r).layers[layer - 1];
    const bool down = phase == Phase::kReduceDown;
    const bool input = down && reads_input(ctx, layer);
    const std::vector<V>& source = input ? s.in : s.v;
    std::vector<Letter<V>>& letters = s.letters[layer - 1];
    std::size_t total = 0;
    for (std::uint32_t q = 0; q < cfg.group.size(); ++q) {
      total += ctx.chunks(cfg.piece(phase, q));
    }
    resize_letters(s, letters, total);
    std::size_t slot = 0;
    for (std::uint32_t q = 0; q < cfg.group.size(); ++q) {
      const std::size_t piece = cfg.piece(phase, q);
      const std::uint32_t k = ctx.chunks(piece);
      for (std::uint32_t c = 0; c < k; ++c) {
        Letter<V>& letter = letters[slot++];
        letter.src = r;
        letter.dst = cfg.group[q];
        letter.packet.in_keys.clear();
        letter.packet.out_keys.clear();
        letter.packet.stride = ctx.stride;
        letter.packet.chunk_index = c;
        letter.packet.chunk_count = k;
        const std::size_t lo = std::size_t{c} * ctx.chunk_positions;
        const std::size_t n = ctx.chunk_length(piece, c);
        pool_refill(s.value_pool, letter.packet.values);
        if (down) {
          const auto first =
              source.begin() +
              static_cast<std::ptrdiff_t>((cfg.out_split[q] + lo) * ctx.stride);
          letter.packet.values.assign(
              first, first + static_cast<std::ptrdiff_t>(n * ctx.stride));
        } else {
          gather_strided_into(
              std::span<const V>(s.vin),
              std::span<const pos_t>(cfg.in_maps[q]).subspan(lo, n),
              ctx.stride, letter.packet.values);
        }
        s.work.gather_elements +=
            static_cast<double>(letter.packet.values.size());
      }
      ++s.stream.letters;
      s.stream.chunks += k;
      s.stream.max_chunks_per_letter =
          std::max(s.stream.max_chunks_per_letter, k);
    }
    if (input) hand_off_input(s);
    return letters;
  }

  /// Combine one complete, (src, chunk)-sorted reduce inbox.
  static void consume(const ReplayContext& ctx, ReplayScratch<V>& s, rank_t r,
                      Phase phase, std::uint16_t layer,
                      std::vector<Letter<V>>&& inbox) {
    if (phase == Phase::kReduceDown) {
      down_consume(ctx, s, r, layer, std::move(inbox));
    } else {
      up_consume(ctx, s, r, layer, std::move(inbox));
    }
  }

  static void down_consume(const ReplayContext& ctx, ReplayScratch<V>& s,
                           rank_t r, std::uint16_t layer,
                           std::vector<Letter<V>>&& inbox) {
    const PlanLayer& cfg = ctx.plan->rank_plan(r).layers[layer - 1];
    note_buffer_envelopes(ctx, s, inbox);
    note_block_flushes(ctx, s, inbox, cfg.out_union_size,
                       [&](const Letter<V>& letter, std::size_t offset,
                           std::size_t positions) {
                         const std::uint32_t q =
                             ctx.plan->topology().digit(layer, letter.src);
                         const std::span<const pos_t> map(cfg.out_maps[q]);
                         // Maps are strictly increasing within one piece,
                         // so the chunk's union footprint is [front, back].
                         return std::pair<std::size_t, std::size_t>(
                             map[offset], map[offset + positions - 1]);
                       });
    std::vector<V>& merged = s.merged;
    merged.assign(cfg.out_union_size * ctx.stride, Op::template identity<V>());
    // Inbox is sorted by (src, chunk): ascending sender digit, ascending
    // chunk within a sender — the letter-at-once per-position combine order
    // exactly, so eager chunk scatters are bit-identical.
    for (Letter<V>& letter : inbox) {
      const std::uint32_t q = ctx.plan->topology().digit(layer, letter.src);
      const std::size_t piece = cfg.recv_out_sizes[q];
      const auto [offset, positions] =
          chunk_slice(ctx, letter.packet, piece,
                      "reduce payload does not match planned piece size");
      scatter_combine_strided<V, Op>(
          std::span<V>(merged), std::span<const V>(letter.packet.values),
          std::span<const pos_t>(cfg.out_maps[q]).subspan(offset, positions),
          ctx.stride);
      s.work.combine_elements +=
          static_cast<double>(letter.packet.values.size());
      s.spent.emplace_back(letter.src, std::move(letter.packet.values));
    }
    std::swap(s.v, merged);
  }

  /// Size begin_up's up buffer for the whole up pass. The executor calls
  /// this on the driving thread before its pooled bottom gather.
  static void reserve_up(const ReplayContext& ctx, ReplayScratch<V>& s,
                         rank_t r) {
    const RankPlan& rp = ctx.plan->rank_plan(r);
    const std::uint16_t l = ctx.plan->topology().num_layers();
    std::vector<V>& up = reads_input(ctx, l + 1) ? s.merged : s.vin;
    pool_refill(s.value_pool, up);
    reserve_fresh(up,
                  std::max(rp.up_capacity, rp.bottom_map.size()) * ctx.stride);
  }

  /// Bottom gather: the fully reduced out-values of node layer l, picked by
  /// bottom_map into the up buffer. With no comm layer (m = 1) the bottom
  /// is the contribution itself, read here in place: the gather lands in
  /// `merged`, the input becomes the result buffer, and the two swap — the
  /// up rounds' ping-pong.
  static void begin_up(const ReplayContext& ctx, ReplayScratch<V>& s,
                       rank_t r) {
    const RankPlan& rp = ctx.plan->rank_plan(r);
    const std::uint16_t l = ctx.plan->topology().num_layers();
    const bool input = reads_input(ctx, l + 1);
    const std::vector<V>& bottom = input ? s.in : s.v;
    std::vector<V>& up = input ? s.merged : s.vin;
    KYLIX_DCHECK(bottom.size() == rp.out_sizes[l] * ctx.stride);
    reserve_up(ctx, s, r);
    if (rp.missing_bottom.empty()) {
      gather_strided_into(std::span<const V>(bottom), rp.bottom_map,
                          ctx.stride, up);
    } else {
      // Degraded cold path: kMissingPos entries resolve to identity.
      up.clear();
      for (const pos_t pos : rp.bottom_map) {
        for (std::uint32_t c = 0; c < ctx.stride; ++c) {
          up.push_back(pos == kMissingPos ? Op::template identity<V>()
                                          : bottom[pos * ctx.stride + c]);
        }
      }
    }
    if (input) {
      hand_off_input(s);
      std::swap(s.vin, s.merged);
    }
    s.work.gather_elements += static_cast<double>(rp.bottom_map.size());
  }

  static void up_consume(const ReplayContext& ctx, ReplayScratch<V>& s,
                         rank_t r, std::uint16_t layer,
                         std::vector<Letter<V>>&& inbox) {
    const PlanLayer& cfg = ctx.plan->rank_plan(r).layers[layer - 1];
    note_buffer_envelopes(ctx, s, inbox);
    note_block_flushes(ctx, s, inbox, cfg.in_prev_size,
                       [&](const Letter<V>& letter, std::size_t offset,
                           std::size_t positions) {
                         const std::uint32_t q =
                             ctx.plan->topology().digit(layer, letter.src);
                         // Allgather chunks land contiguously at the piece's
                         // split boundary.
                         const std::size_t lo = cfg.in_split[q] + offset;
                         return std::pair<std::size_t, std::size_t>(
                             lo, lo + positions - 1);
                       });
    std::vector<V>& below = s.merged;
    below.assign(cfg.in_prev_size * ctx.stride, Op::template identity<V>());
    for (Letter<V>& letter : inbox) {
      const std::uint32_t q = ctx.plan->topology().digit(layer, letter.src);
      const std::size_t piece = cfg.in_split[q + 1] - cfg.in_split[q];
      const auto [offset, positions] =
          chunk_slice(ctx, letter.packet, piece,
                      "allgather payload does not match planned piece size");
      const std::size_t first = (cfg.in_split[q] + offset) * ctx.stride;
      std::copy(letter.packet.values.begin(), letter.packet.values.end(),
                below.begin() + static_cast<std::ptrdiff_t>(first));
      s.spent.emplace_back(letter.src, std::move(letter.packet.values));
    }
    std::swap(s.vin, below);
  }

  /// Close a replay: hand every rank that finished alive its allgather
  /// result (an empty vector to ranks dead or uncovered at completion) and
  /// merge the per-rank telemetry into `stats` in ascending rank order,
  /// which keeps the aggregate deterministic whichever thread consumed
  /// each rank.
  template <typename DeadFn>
  static void collect(const ReplayContext& ctx,
                      std::vector<ReplayScratch<V>>& scratch, DeadFn&& dead,
                      std::vector<std::vector<V>>& results,
                      StreamStats& stats) {
    const CollectivePlan& plan = *ctx.plan;
    results.resize(plan.num_ranks());
    stats = StreamStats{};
    stats.streamed = ctx.chunk_positions != 0;
    stats.chunk_bytes =
        std::uint64_t{ctx.chunk_positions} * sizeof(V) * ctx.stride;
    for (rank_t r = 0; r < plan.num_ranks(); ++r) {
      if (!dead(r) && plan.rank_plan(r).configured) {
        results[r] = std::move(scratch[r].vin);
      } else {
        results[r].clear();
      }
      stats.merge(scratch[r].stream);
    }
  }

  /// Validate one letter's chunk framing against the planned piece length
  /// and return its {position offset, position count} within the piece.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> chunk_slice(
      const ReplayContext& ctx, const Packet<V>& packet, std::size_t piece,
      const char* what) {
    std::size_t offset = 0;
    std::size_t positions = piece;
    if (packet.chunk_count > 1) {
      KYLIX_CHECK_MSG(ctx.chunk_positions != 0 &&
                          packet.chunk_count == ctx.chunks(piece) &&
                          packet.chunk_index < packet.chunk_count,
                      "chunk framing does not match the plan's schedule");
      offset = std::size_t{packet.chunk_index} * ctx.chunk_positions;
      positions = ctx.chunk_length(piece, packet.chunk_index);
    }
    KYLIX_CHECK_MSG(packet.values.size() == positions * ctx.stride, what);
    return {offset, positions};
  }

  /// Record what this consume had to buffer: the whole inbox (letter-at-once
  /// envelope) vs. one in-flight chunk per sender (streamed envelope, the
  /// O(chunk x in-degree) cap eager combining buys). Requires the inbox to
  /// be (src, chunk)-sorted, which every driver guarantees.
  static void note_buffer_envelopes(const ReplayContext& ctx,
                                    ReplayScratch<V>& s,
                                    const std::vector<Letter<V>>& inbox) {
    std::uint64_t letter_bytes = 0;
    std::uint64_t stream_bytes = 0;
    std::uint64_t src_max = 0;
    rank_t src = 0;
    bool first = true;
    for (const Letter<V>& letter : inbox) {
      const std::uint64_t bytes =
          sizeof(V) * std::uint64_t{letter.packet.values.size()};
      letter_bytes += bytes;
      if (first || letter.src != src) {
        stream_bytes += src_max;
        src_max = 0;
        src = letter.src;
        first = false;
      }
      src_max = std::max(src_max, bytes);
    }
    stream_bytes += src_max;
    s.stream.peak_letter_buffer_bytes =
        std::max(s.stream.peak_letter_buffer_bytes, letter_bytes);
    s.stream.peak_stream_buffer_bytes =
        std::max(s.stream.peak_stream_buffer_bytes,
                 ctx.chunk_positions == 0 ? letter_bytes : stream_bytes);
  }

  /// Block watermarks: the round's target buffer is partitioned into blocks
  /// of chunk_positions key positions; block b flushes downstream after the
  /// last chunk touching it (index t_b in the deterministic processing
  /// order) combines. `range` maps (letter, piece offset, positions) to the
  /// inclusive target-position range the chunk writes. The flush timeline is
  /// what pipelined_reduce_time prices; here it feeds blocks_flushed and the
  /// overlap ratio. Scratch is pooled (last_touch keeps capacity), so warm
  /// streamed rounds allocate nothing.
  template <typename RangeFn>
  static void note_block_flushes(const ReplayContext& ctx, ReplayScratch<V>& s,
                                 const std::vector<Letter<V>>& inbox,
                                 std::size_t target_positions,
                                 RangeFn&& range) {
    const std::size_t span = ctx.chunk_positions;
    if (span == 0 || target_positions == 0 || inbox.empty()) return;
    const std::size_t blocks = (target_positions + span - 1) / span;
    s.last_touch.assign(blocks, 0);
    for (std::uint32_t i = 0; i < inbox.size(); ++i) {
      const Letter<V>& letter = inbox[i];
      if (letter.packet.values.empty()) continue;
      const std::size_t positions = letter.packet.values.size() / ctx.stride;
      const std::size_t offset = std::size_t{letter.packet.chunk_index} * span;
      const auto [lo, hi] = range(letter, offset, positions);
      for (std::size_t b = lo / span; b <= hi / span; ++b) {
        s.last_touch[b] = i;
      }
    }
    const double last = static_cast<double>(inbox.size()) - 1.0;
    for (std::size_t b = 0; b < blocks; ++b) {
      ++s.stream.blocks_flushed;
      ++s.stream.overlap_blocks;
      if (last > 0.0) {
        s.stream.overlap_weight +=
            (last - static_cast<double>(s.last_touch[b])) / last;
      }
    }
  }
};

}  // namespace kylix
