// Shared per-rank replay stages for compiled CollectivePlans.
//
// ReduceExecutor (core/executor.hpp) drives these stages for every replay,
// the async executor's streams included (core/async_executor.hpp). This
// header is the single definition of what one rank does at one layer —
// slice by out_split, scatter_combine by out_maps in ascending sender
// digit, bottom gather, gather by in_maps — plus the chunk framing
// (DESIGN §9), the buffer economy, and the replay setup and close: the
// context, the admission checks, result collection and NodeWork, whose
// element counts the async timeline pricer charges without running a
// kernel.
//
// A round's callbacks only hand letters over and park what arrived; the
// values move in pooled stages around the round, cut into Slices (DESIGN
// §8): letters packed before it, parked letters combined after it, each
// slice owning its target positions. A down combine writes every position
// where it is read next — straight into the next layer's letters, or the
// bottom union after the last layer — so no union is copied into letters.
//
// ReplayScratch is every rank's one home for value buffers — combined
// configure+reduce scatter-reduces into it too (core/node.hpp): the
// caller's contribution, letter shells per layer, recycled value pools,
// the kept union buffers, pooled block-watermark scratch, and the parked
// inbox whose buffers return to their sender's pool after the combine.
// The contribution is never copied into a buffer of its own: load_input
// moves the caller's vector into `in`, the first stage that needs it reads
// it there (the layer-1 pack on flat plans, layer-1 config_produce in
// combined mode, the bottom gather when there is no layer), and
// hand_off_input then moves that buffer into the rank's empty result slot
// (intra_down on hierarchical plans hands it off first and folds it from
// there) — one buffer in and one out per rank and reduce, none of them
// parked in a pool. Warm replays allocate nothing inside the rounds
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

/// `n` values of a buffer a rank keeps across replays, for a pooled stage
/// to overwrite. The vector only grows (value-initializing the growth), so
/// a buffer that serves the same sizes every replay is sized once and
/// never again filled on the driving thread; its readers take their
/// lengths from the plan.
template <typename T>
void keep_size(std::vector<T>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
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

/// A consumed letter's values, parked by the round's consume callback for
/// the combine stage after the round: the sender, its digit in the group,
/// and the first piece position the values cover.
template <typename V>
struct Parked {
  rank_t src = 0;
  std::uint32_t digit = 0;
  std::size_t offset = 0;
  std::vector<V> values;
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
  /// Kept across replays (keep_size): `v` holds the bottom union (a
  /// leader's host union when the plan has no comm layer), and the up pass
  /// alternates between `merged` and `v` (ReplayOps::up_values).
  std::vector<V> v;
  std::vector<V> merged;
  std::vector<V> vin;  ///< the result buffer
  std::vector<std::uint32_t> last_touch;  ///< block-watermark scratch
  /// The last round's inbox in (src, chunk) order. Only the value buffers
  /// move here — the inbox vector and its letter shells stay with the
  /// engine, which pools them round to round.
  std::vector<Parked<V>> parked;
  NodeWork work;
  StreamStats stream;  ///< this rank's round-local telemetry
};

/// One task of a pooled replay stage: target positions [lo, hi) of rank
/// `rank` — in one of the letters it sends next (`target` is the letter's
/// index in its shells), in a buffer it keeps (kKept), or in its result
/// buffer (kResult).
struct Slice {
  static constexpr std::uint32_t kKept = ~std::uint32_t{0};
  static constexpr std::uint32_t kResult = kKept - 1;
  rank_t rank = 0;
  std::uint32_t target = kKept;
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// The per-rank replay stages. All methods are static and take the
/// context + scratch explicitly, so the combined configure+reduce pass can
/// load its inputs into the same per-rank slots the executor replays.
///
/// One slicing rule serves every pooled stage: a letter the stage fills is
/// one slice, and a buffer the rank keeps is cut into runs of at most
/// kSliceValues values. A slice owns its target positions, so each
/// position keeps the combine order of a serial replay and no atomics are
/// needed. Each stage has two halves: plan_* runs on the driving thread,
/// sizes the rank's targets and appends its slices; the other half runs
/// one slice on a pool worker and only writes.
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

  /// After its first reader: the contribution becomes the rank's result
  /// buffer. The slot is empty — the last result left with the
  /// caller — unless the rank was dead at the last collect, whose stale
  /// buffer this frees. Never pooled: a pooled input grows the pools by
  /// one contribution per rank.
  static void hand_off_input(ReplayScratch<V>& s) {
    s.vin = std::exchange(s.in, {});
  }

  /// The buffer holding a rank's in^i values in the up pass (node layer
  /// i <= l): the bottom gather fills in^l in `merged`, and each up
  /// combine fills the next layer up in the other kept buffer (the bottom
  /// union in `v` is dead once gathered). A flat rank's in^0 is its result.
  [[nodiscard]] static std::vector<V>& up_values(const ReplayContext& ctx,
                                                 ReplayScratch<V>& s,
                                                 std::uint16_t node_layer) {
    const std::uint16_t l = ctx.plan->topology().num_layers();
    if (node_layer == 0 && l >= 1 && !ctx.plan->hierarchical()) return s.vin;
    return (l - node_layer) % 2 == 0 ? s.merged : s.v;
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

  /// Ready rank r's letters of one reduce round for a pooled stage to
  /// fill, one slice per letter: for each group member in ascending digit,
  /// its piece — the out_split range going down, the in_maps gather coming
  /// up — cut into ctx.chunks(piece) letters, each holding a buffer from
  /// the rank's pool (the task that fills it grows it when it must, so
  /// changing sets allocate in parallel). A down slice spans the letter's
  /// positions in out^{layer-1}, an up slice its positions in the piece.
  static void plan_letters(const ReplayContext& ctx, ReplayScratch<V>& s,
                           rank_t r, Phase phase, std::uint16_t layer,
                           std::vector<Slice>& slices) {
    const PlanLayer& cfg = ctx.plan->rank_plan(r).layers[layer - 1];
    const bool down = phase == Phase::kReduceDown;
    std::vector<Letter<V>>& letters = s.letters[layer - 1];
    std::size_t total = 0;
    for (std::uint32_t q = 0; q < cfg.group.size(); ++q) {
      total += ctx.chunks(cfg.piece(phase, q));
    }
    resize_letters(s, letters, total);
    std::uint32_t slot = 0;
    for (std::uint32_t q = 0; q < cfg.group.size(); ++q) {
      const std::size_t piece = cfg.piece(phase, q);
      const std::uint32_t k = ctx.chunks(piece);
      for (std::uint32_t c = 0; c < k; ++c) {
        Letter<V>& letter = letters[slot];
        letter.src = r;
        letter.dst = cfg.group[q];
        letter.packet.in_keys.clear();
        letter.packet.out_keys.clear();
        letter.packet.stride = ctx.stride;
        letter.packet.chunk_index = c;
        letter.packet.chunk_count = k;
        const std::size_t n = ctx.chunk_length(piece, c);
        pool_refill(s.value_pool, letter.packet.values);
        const std::size_t lo = (down ? cfg.out_split[q] : 0) +
                               std::size_t{c} * ctx.chunk_positions;
        slices.push_back({r, slot++, lo, lo + n});
      }
    }
  }

  /// Fill one letter that no combine writes: going down, a copy out of the
  /// contribution (a flat plan's layer-1 letters); coming up, the in_maps
  /// gather of the up buffer.
  static void pack(const ReplayContext& ctx, ReplayScratch<V>& s,
                   Phase phase, std::uint16_t layer, const Slice& t) {
    Letter<V>& letter = s.letters[layer - 1][t.target];
    if (phase == Phase::kReduceDown) {
      const auto first =
          s.in.begin() + static_cast<std::ptrdiff_t>(t.lo * ctx.stride);
      letter.packet.values.assign(
          first,
          first + static_cast<std::ptrdiff_t>((t.hi - t.lo) * ctx.stride));
      return;
    }
    const PlanLayer& cfg = ctx.plan->rank_plan(t.rank).layers[layer - 1];
    const std::uint32_t q = ctx.plan->topology().digit(layer, letter.dst);
    gather_strided_into(
        std::span<const V>(up_values(ctx, s, layer)),
        std::span<const pos_t>(cfg.in_maps[q]).subspan(t.lo, t.hi - t.lo),
        ctx.stride, letter.packet.values);
  }

  /// Rank r's letters for one reduce round, filled by a pooled stage
  /// before it. Only the accounting happens here, in the round callback
  /// that charges it: every value produced counts as a gather.
  static std::vector<Letter<V>>& hand_over(const ReplayContext& ctx,
                                           ReplayScratch<V>& s, rank_t r,
                                           Phase phase, std::uint16_t layer) {
    const PlanLayer& cfg = ctx.plan->rank_plan(r).layers[layer - 1];
    std::vector<Letter<V>>& letters = s.letters[layer - 1];
    for (const Letter<V>& letter : letters) {
      s.work.gather_elements +=
          static_cast<double>(letter.packet.values.size());
    }
    for (std::uint32_t q = 0; q < cfg.group.size(); ++q) {
      const std::uint32_t k = ctx.chunks(cfg.piece(phase, q));
      ++s.stream.letters;
      s.stream.chunks += k;
      s.stream.max_chunks_per_letter =
          std::max(s.stream.max_chunks_per_letter, k);
    }
    if (phase == Phase::kReduceDown && reads_input(ctx, layer)) {
      hand_off_input(s);
    }
    return letters;
  }

  /// Check one complete, (src, chunk)-sorted reduce inbox against the plan
  /// and park its values for the combine stage. The chunk framing checks,
  /// the stream telemetry and the NodeWork all stay in the round.
  static void park(const ReplayContext& ctx, ReplayScratch<V>& s, rank_t r,
                   Phase phase, std::uint16_t layer,
                   std::vector<Letter<V>>&& inbox) {
    const PlanLayer& cfg = ctx.plan->rank_plan(r).layers[layer - 1];
    const bool down = phase == Phase::kReduceDown;
    // Empty unless an earlier round threw before its combine ran.
    s.parked.clear();
    note_buffer_envelopes(ctx, s, inbox);
    note_block_flushes(
        ctx, s, inbox, down ? cfg.out_union_size : cfg.in_prev_size,
        [&](const Letter<V>& letter, std::size_t offset,
            std::size_t positions) {
          const std::uint32_t q = ctx.plan->topology().digit(layer, letter.src);
          if (down) {
            // Maps are strictly increasing within one piece, so the
            // chunk's union footprint is [front, back].
            const std::span<const pos_t> map(cfg.out_maps[q]);
            return std::pair<std::size_t, std::size_t>(
                map[offset], map[offset + positions - 1]);
          }
          // Allgather chunks land contiguously at the piece's split
          // boundary.
          const std::size_t lo = cfg.in_split[q] + offset;
          return std::pair<std::size_t, std::size_t>(lo, lo + positions - 1);
        });
    for (Letter<V>& letter : inbox) {
      const std::uint32_t q = ctx.plan->topology().digit(layer, letter.src);
      const std::size_t piece =
          down ? cfg.recv_out_sizes[q] : cfg.in_split[q + 1] - cfg.in_split[q];
      const std::size_t offset =
          chunk_slice(ctx, letter.packet, piece,
                      down ? "reduce payload does not match planned piece size"
                           : "allgather payload does not match planned piece "
                             "size")
              .first;
      if (down) {
        s.work.combine_elements +=
            static_cast<double>(letter.packet.values.size());
      }
      s.parked.push_back(
          {letter.src, q, offset, std::move(letter.packet.values)});
    }
  }

  /// Size rank r's targets for the combine after round {phase, layer} and
  /// append its slices. Going down, every position is written where it is
  /// read next: one slice per letter of the next round, or runs of the
  /// bottom union `v` after the last layer (layer 0 is a leader's fold of
  /// its host). Coming up, runs of in^{layer-1} (a flat rank's result
  /// buffer, in^0, was sized in the bottom stage).
  static void plan_combine(const ReplayContext& ctx, ReplayScratch<V>& s,
                           rank_t r, Phase phase, std::uint16_t layer,
                           std::vector<Slice>& slices) {
    const RankPlan& rp = ctx.plan->rank_plan(r);
    const std::uint16_t l = ctx.plan->topology().num_layers();
    std::size_t n = 0;
    if (phase == Phase::kReduceUp) {
      n = rp.layers[layer - 1].in_prev_size;
      keep_size(up_values(ctx, s, layer - 1), n * ctx.stride);
    } else if (layer < l) {
      plan_letters(ctx, s, r, Phase::kReduceDown, layer + 1, slices);
      return;
    } else {
      n = rp.out_sizes[l];
      keep_size(s.v, n * ctx.stride);
    }
    plan_kept(ctx, r, n, slices);
  }

  /// One slice of the combine after round {phase, layer}.
  static void combine(const ReplayContext& ctx, ReplayScratch<V>& s,
                      Phase phase, std::uint16_t layer, const Slice& t) {
    if (phase == Phase::kReduceDown) {
      combine_down(ctx, s, layer, t);
    } else {
      combine_up(ctx, s, layer, t);
    }
  }

  /// A down slice's target, at the identity: positions [lo, hi) of
  /// out^{node_layer}, in the next comm layer's letter that carries them
  /// or in the bottom union.
  [[nodiscard]] static std::span<V> down_target(const ReplayContext& ctx,
                                                ReplayScratch<V>& s,
                                                std::uint16_t node_layer,
                                                const Slice& t) {
    const std::size_t n = (t.hi - t.lo) * ctx.stride;
    if (t.target == Slice::kKept) {
      const std::span<V> out =
          std::span<V>(s.v).subspan(t.lo * ctx.stride, n);
      std::fill(out.begin(), out.end(), Op::template identity<V>());
      return out;
    }
    std::vector<V>& values = s.letters[node_layer][t.target].packet.values;
    values.assign(n, Op::template identity<V>());
    return values;
  }

  /// Scatter-combine the part of one source whose map lands in target
  /// positions [lo, hi) into `out`, which holds exactly those positions.
  /// Maps are strictly increasing, so the part is one range: two
  /// lower_bounds find it.
  static void combine_part(std::span<V> out, std::size_t lo, std::size_t hi,
                           std::span<const pos_t> map,
                           std::span<const V> values, std::size_t stride) {
    const std::size_t a =
        std::lower_bound(map.begin(), map.end(), lo) - map.begin();
    const std::size_t b =
        std::lower_bound(map.begin() + a, map.end(), hi) - map.begin();
    if (a == b) return;
    scatter_combine_strided<V, Op>(
        out, values.subspan(a * stride, (b - a) * stride),
        map.subspan(a, b - a), stride, lo);
  }

  /// One down slice after round `layer`: the target takes the identity,
  /// then each parked letter's part in ascending (src, chunk) order — the
  /// per-position combine order of a serial consume. A sender's chunks
  /// cover ascending runs of the union, so a binary search skips those
  /// that end before the slice.
  static void combine_down(const ReplayContext& ctx, ReplayScratch<V>& s,
                           std::uint16_t layer, const Slice& t) {
    const PlanLayer& cfg = ctx.plan->rank_plan(t.rank).layers[layer - 1];
    const std::span<V> out = down_target(ctx, s, layer, t);
    const std::size_t stride = ctx.stride;
    const auto end_of = [stride](const Parked<V>& p) {
      return p.offset + p.values.size() / stride;
    };
    const auto end = s.parked.end();
    for (auto run = s.parked.begin(); run != end;) {
      const std::uint32_t q = run->digit;
      const auto run_end = std::partition_point(
          run, end, [q](const Parked<V>& p) { return p.digit == q; });
      const std::span<const pos_t> map(cfg.out_maps[q]);
      auto it = std::partition_point(run, run_end, [&](const Parked<V>& p) {
        return end_of(p) == p.offset || map[end_of(p) - 1] < t.lo;
      });
      for (; it != run_end && map[it->offset] < t.hi; ++it) {
        combine_part(out, t.lo, t.hi,
                     map.subspan(it->offset, end_of(*it) - it->offset),
                     it->values, stride);
      }
      run = run_end;
    }
  }

  /// One up slice after round `layer`: each parked letter carries one
  /// contiguous run of in^{layer-1} at its piece's in_split boundary, so
  /// the slice copies the parts that reach it and takes the identity where
  /// no letter arrived.
  static void combine_up(const ReplayContext& ctx, ReplayScratch<V>& s,
                         std::uint16_t layer, const Slice& t) {
    const PlanLayer& cfg = ctx.plan->rank_plan(t.rank).layers[layer - 1];
    const std::size_t stride = ctx.stride;
    V* const out = up_values(ctx, s, layer - 1).data();
    const auto first_of = [&](const Parked<V>& p) {
      return cfg.in_split[p.digit] + p.offset;
    };
    std::size_t at = t.lo;  // next position to write
    auto it = std::partition_point(
        s.parked.begin(), s.parked.end(), [&](const Parked<V>& p) {
          return first_of(p) + p.values.size() / stride <= t.lo;
        });
    for (; it != s.parked.end() && first_of(*it) < t.hi; ++it) {
      const std::size_t first = first_of(*it);
      const std::size_t a = std::max(first, t.lo);
      const std::size_t b =
          std::min(first + it->values.size() / stride, t.hi);
      std::fill(out + at * stride, out + a * stride,
                Op::template identity<V>());
      std::copy(it->values.begin() +
                    static_cast<std::ptrdiff_t>((a - first) * stride),
                it->values.begin() +
                    static_cast<std::ptrdiff_t>((b - first) * stride),
                out + a * stride);
      at = b;
    }
    std::fill(out + at * stride, out + t.hi * stride,
              Op::template identity<V>());
  }

  /// Size rank r's bottom gather — out^l picked into in^l by bottom_map —
  /// and append its slices of in^l. A flat rank with comm layers also gets
  /// its result buffer sized here, by one more task, for the last up
  /// combine to fill.
  static void plan_bottom(const ReplayContext& ctx, ReplayScratch<V>& s,
                          rank_t r, std::vector<Slice>& slices) {
    const RankPlan& rp = ctx.plan->rank_plan(r);
    const std::uint16_t l = ctx.plan->topology().num_layers();
    const std::size_t n = rp.bottom_map.size();
    KYLIX_DCHECK((reads_input(ctx, l + 1) ? s.in : s.v).size() >=
                 rp.out_sizes[l] * ctx.stride);
    keep_size(up_values(ctx, s, l), n * ctx.stride);
    plan_kept(ctx, r, n, slices);
    if (&up_values(ctx, s, 0) == &s.vin) {
      pool_refill(s.value_pool, s.vin);
      reserve_fresh(s.vin, rp.in0.size() * ctx.stride);
      slices.push_back({r, Slice::kResult, 0, rp.in0.size()});
    }
  }

  /// One slice of the bottom gather, or the result sizing plan_bottom
  /// appended. With no comm layer (m = 1) the bottom is the contribution
  /// itself, read in place.
  static void gather_bottom(const ReplayContext& ctx, ReplayScratch<V>& s,
                            const Slice& t) {
    if (t.target == Slice::kResult) {
      s.vin.resize(t.hi * ctx.stride);
      return;
    }
    const RankPlan& rp = ctx.plan->rank_plan(t.rank);
    const std::uint16_t l = ctx.plan->topology().num_layers();
    const std::span<const V> bottom(reads_input(ctx, l + 1) ? s.in : s.v);
    const std::span<const pos_t> map =
        std::span<const pos_t>(rp.bottom_map).subspan(t.lo, t.hi - t.lo);
    V* out = up_values(ctx, s, l).data() + t.lo * ctx.stride;
    if (rp.missing_bottom.empty()) {
      kernels::gather_strided<V>(bottom, map, ctx.stride, out);
      return;
    }
    // Degraded cold path: kMissingPos entries resolve to identity.
    for (const pos_t pos : map) {
      for (std::uint32_t c = 0; c < ctx.stride; ++c) {
        *out++ = pos == kMissingPos ? Op::template identity<V>()
                                    : bottom[pos * ctx.stride + c];
      }
    }
  }

  /// After the bottom stage, on the driving thread: with no comm layer the
  /// contribution becomes the result buffer and the gathered in^0 swaps in
  /// as the result; the gather counts as NodeWork either way.
  static void finish_bottom(const ReplayContext& ctx, ReplayScratch<V>& s,
                            rank_t r) {
    const RankPlan& rp = ctx.plan->rank_plan(r);
    if (reads_input(ctx, ctx.plan->topology().num_layers() + 1)) {
      hand_off_input(s);
      std::swap(s.vin, s.merged);
      s.vin.resize(rp.in0.size() * ctx.stride);
    }
    s.work.gather_elements += static_cast<double>(rp.bottom_map.size());
  }

  /// Return every parked value buffer to its sender's pool once the
  /// combine stage has read it. Chunked schedules are asymmetric — a rank
  /// rarely receives as many chunks as it sends — so recycling into the
  /// consumer's pool would slowly drain producer pools and hit the
  /// allocator on every warm replay; this way every producer opens its
  /// next round holding the buffers (and capacities) it used last time.
  static void recycle(std::vector<ReplayScratch<V>>& state) {
    for (ReplayScratch<V>& s : state) {
      for (Parked<V>& p : s.parked) {
        KYLIX_DCHECK(p.src < state.size());
        pool_recycle(state[p.src].value_pool, p.values);
      }
      s.parked.clear();
    }
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

  /// Slices of at most kSliceValues values over positions [0, n) of a
  /// buffer rank r keeps.
  static void plan_kept(const ReplayContext& ctx, rank_t r, std::size_t n,
                        std::vector<Slice>& slices) {
    const std::size_t step =
        std::max<std::size_t>(1, kSliceValues / ctx.stride);
    for (std::size_t lo = 0; lo < n; lo += step) {
      slices.push_back({r, Slice::kKept, lo, std::min(n, lo + step)});
    }
  }

 private:
  /// Runs short enough that a few ranks' buffers still make several tasks
  /// per pool thread, long enough that a slice's binary searches stay small
  /// next to its values (8192 floats are 32 KiB).
  static constexpr std::size_t kSliceValues = 8192;
};

}  // namespace kylix
