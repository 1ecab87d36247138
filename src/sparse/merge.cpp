#include "sparse/merge.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"

namespace kylix {

namespace {

/// Copy src[lo, hi) to out[o, ...) and fill the matching map entries with
/// consecutive union positions plus `base`, in one compare-free loop —
/// "everything left comes from one side". A fused loop rather than a
/// memmove call: the gallop path takes runs of a few keys, where the call
/// costs more than the copy. Returns the next output position.
std::size_t bulk_take(std::span<const key_t> src, std::size_t lo,
                      std::size_t hi, key_t* out, std::size_t o,
                      std::span<pos_t> map, pos_t base) {
  for (std::size_t p = lo; p < hi; ++p) {
    out[o] = src[p];
    map[p] = base + static_cast<pos_t>(o++);
  }
  return o;
}

/// First index >= `from` with a[idx] >= key: exponential probe to bracket
/// the answer in a window of size <= 2^ceil(log gap), then binary search
/// only that window. O(log gap) instead of O(log n) per probe, and O(1)
/// when the next short-side key is nearby.
std::size_t gallop(std::span<const key_t> a, std::size_t from, key_t key) {
  if (from >= a.size() || a[from] >= key) return from;
  std::size_t offset = 1;
  while (from + offset < a.size() && a[from + offset] < key) offset <<= 1;
  const auto lo = a.begin() + static_cast<std::ptrdiff_t>(from + (offset >> 1));
  const auto hi = a.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(from + offset, a.size()));
  return static_cast<std::size_t>(std::lower_bound(lo, hi, key) - a.begin());
}

/// Skewed-size union: for each key of the short side, gallop over the long
/// side and bulk-copy the keys it skips. Total cost O(short * log(long/short)
/// + long at copy speed) instead of a compare per long element. Returns the
/// union size.
std::size_t gallop_union(std::span<const key_t> lng,
                         std::span<const key_t> shrt, key_t* out,
                         std::span<pos_t> map_long, std::span<pos_t> map_short,
                         pos_t base) {
  std::size_t i = 0;
  std::size_t o = 0;
  for (std::size_t j = 0; j < shrt.size(); ++j) {
    const std::size_t idx = gallop(lng, i, shrt[j]);
    o = bulk_take(lng, i, idx, out, o, map_long, base);
    i = idx;
    if (i < lng.size() && lng[i] == shrt[j]) {
      map_long[i++] = base + static_cast<pos_t>(o);
    }
    out[o] = shrt[j];
    map_short[j] = base + static_cast<pos_t>(o++);
  }
  return bulk_take(lng, i, lng.size(), out, o, map_long, base);
}

/// Balanced-size union, branch-free: each step emits the smaller head and
/// advances each cursor by its compare result (both on a tie), so random
/// interleavings cost no mispredicted branches. Both map slots under the
/// cursors are written every step; a slot is rewritten until its key is
/// taken, and the last write is that key's union position.
std::size_t interleave_union(std::span<const key_t> a,
                             std::span<const key_t> b, key_t* out,
                             std::span<pos_t> map_a, std::span<pos_t> map_b,
                             pos_t base) {
  const key_t* pa = a.data();
  const key_t* pb = b.data();
  pos_t* ma = map_a.data();
  pos_t* mb = map_b.data();
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t o = 0;
  while (i < na && j < nb) {
    const key_t x = pa[i];
    const key_t y = pb[j];
    out[o] = x < y ? x : y;
    ma[i] = base + static_cast<pos_t>(o);
    mb[j] = base + static_cast<pos_t>(o);
    i += static_cast<std::size_t>(x <= y);
    j += static_cast<std::size_t>(y <= x);
    ++o;
  }
  // One side is exhausted: the other tail transfers in one copy loop.
  o = bulk_take(a, i, na, out, o, map_a, base);
  return bulk_take(b, j, nb, out, o, map_b, base);
}

}  // namespace

void merge_union_into(std::span<const key_t> a, std::span<const key_t> b,
                      std::vector<key_t>& keys, std::span<pos_t> map_a,
                      std::span<pos_t> map_b, pos_t base) {
  KYLIX_DCHECK(map_a.size() == a.size() && map_b.size() == b.size());
  // Presized outputs: every path writes through raw pointers and the union
  // is trimmed to its size at the end. A buffer too small for the input
  // total is reallocated to exactly that total, copying nothing; a warm one
  // is only resized, which fills no more than its newly grown slots.
  const std::size_t total = a.size() + b.size();
  if (keys.capacity() < total) {
    keys.clear();
    keys.reserve(total);
  }
  keys.resize(total);

  std::size_t size = 0;
  if (a.size() >= kGallopRatio * b.size()) {
    size = gallop_union(a, b, keys.data(), map_a, map_b, base);
  } else if (b.size() >= kGallopRatio * a.size()) {
    size = gallop_union(b, a, keys.data(), map_b, map_a, base);
  } else {
    size = interleave_union(a, b, keys.data(), map_a, map_b, base);
  }
  keys.resize(size);
}

void merge_union_into(std::span<const key_t> a, std::span<const key_t> b,
                      std::vector<key_t>& keys, PosMap& map_a, PosMap& map_b) {
  map_a.resize(a.size());
  map_b.resize(b.size());
  merge_union_into(a, b, keys, std::span<pos_t>(map_a),
                   std::span<pos_t>(map_b), 0);
}

UnionResult merge_union(std::span<const key_t> a, std::span<const key_t> b) {
  UnionResult result;
  result.maps.assign(2, {});
  merge_union_into(a, b, result.keys, result.maps[0], result.maps[1]);
  return result;
}

namespace {

void identity_map(std::span<pos_t> map, pos_t base) {
  for (std::size_t p = 0; p < map.size(); ++p) {
    map[p] = base + static_cast<pos_t>(p);
  }
}

}  // namespace

void tree_merge_into(std::span<const std::span<const key_t>> inputs,
                     std::vector<key_t>& keys,
                     std::span<const std::span<pos_t>> maps, pos_t base,
                     MergeScratch& scratch) {
  const std::size_t k = inputs.size();
  KYLIX_DCHECK(maps.size() == k);
  if (k == 0) {
    keys.clear();
    return;
  }
  if (k == 1) {
    keys.assign(inputs[0].begin(), inputs[0].end());
    identity_map(maps[0], base);
    return;
  }
  if (k == 2) {
    merge_union_into(inputs[0], inputs[1], keys, maps[0], maps[1], base);
    return;
  }

  // Level 0: 2-way merge adjacent input pairs; the pair maps ARE the leaf
  // maps at this level, so write them straight into the output slots. (Not
  // via map_a/map_b + swap: that would rotate buffers between the output
  // and the scratch on every call, so warm capacities never settle.)
  auto& runs0 = scratch.runs[0];
  const std::size_t nruns0 = (k + 1) / 2;
  if (runs0.size() < nruns0) runs0.resize(nruns0);
  for (std::size_t j = 0; j < k / 2; ++j) {
    merge_union_into(inputs[2 * j], inputs[2 * j + 1], runs0[j], maps[2 * j],
                     maps[2 * j + 1], 0);
  }
  if (k % 2 == 1) {
    runs0[nruns0 - 1].assign(inputs[k - 1].begin(), inputs[k - 1].end());
    identity_map(maps[k - 1], 0);
  }

  // Upper levels: ping-pong runs between the two arenas, composing every
  // affected leaf map with its side's 2-way map. Run j at the level with
  // `leaf_span` leaves per run covers leaves [j·leaf_span, (j+1)·leaf_span).
  // The top level (two runs left) merges into `keys`, and its two-way maps
  // carry `base`, so the last composition writes the final positions.
  std::size_t count = nruns0;
  std::size_t level = 0;
  while (count > 1) {
    auto& cur = scratch.runs[level & 1];
    auto& nxt = scratch.runs[(level + 1) & 1];
    const std::size_t nnext = (count + 1) / 2;
    if (nxt.size() < nnext) nxt.resize(nnext);
    const bool top = count == 2;
    const std::size_t leaf_span = std::size_t{1} << (level + 1);
    for (std::size_t j = 0; j < count / 2; ++j) {
      scratch.map_a.resize(cur[2 * j].size());
      scratch.map_b.resize(cur[2 * j + 1].size());
      merge_union_into(cur[2 * j], cur[2 * j + 1], top ? keys : nxt[j],
                       scratch.map_a, scratch.map_b, top ? base : 0);
      const std::size_t a_lo = 2 * j * leaf_span;
      const std::size_t a_hi = std::min(a_lo + leaf_span, k);
      const std::size_t b_hi = std::min(a_hi + leaf_span, k);
      for (std::size_t leaf = a_lo; leaf < a_hi; ++leaf) {
        for (pos_t& p : maps[leaf]) p = scratch.map_a[p];
      }
      for (std::size_t leaf = a_hi; leaf < b_hi; ++leaf) {
        for (pos_t& p : maps[leaf]) p = scratch.map_b[p];
      }
    }
    // An odd trailing run passes through unchanged (its leaf maps already
    // address its keys); swap keeps both buffers inside the scratch.
    if (count % 2 == 1) std::swap(nxt[nnext - 1], cur[count - 1]);
    count = nnext;
    ++level;
  }
}

void tree_merge_into(std::span<const std::span<const key_t>> inputs,
                     UnionResult& out, MergeScratch& scratch) {
  out.maps.resize(inputs.size());
  scratch.maps.clear();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out.maps[i].resize(inputs[i].size());
    scratch.maps.emplace_back(out.maps[i]);
  }
  tree_merge_into(inputs, out.keys, scratch.maps, 0, scratch);
}

UnionResult tree_merge(std::span<const std::span<const key_t>> inputs) {
  UnionResult out;
  MergeScratch scratch;
  tree_merge_into(inputs, out, scratch);
  return out;
}

UnionResult tree_merge(const std::vector<std::vector<key_t>>& inputs) {
  std::vector<std::span<const key_t>> spans(inputs.begin(), inputs.end());
  return tree_merge(spans);
}

UnionResult hash_union(std::span<const std::span<const key_t>> inputs) {
  UnionResult result;
  std::unordered_map<key_t, pos_t> positions;
  std::size_t total = 0;
  for (const auto& in : inputs) total += in.size();
  positions.reserve(total);
  result.maps.reserve(inputs.size());
  for (const auto& in : inputs) {
    PosMap map(in.size());
    for (std::size_t p = 0; p < in.size(); ++p) {
      const auto [it, inserted] = positions.try_emplace(
          in[p], static_cast<pos_t>(result.keys.size()));
      if (inserted) result.keys.push_back(in[p]);
      map[p] = it->second;
    }
    result.maps.push_back(std::move(map));
  }
  return result;
}

}  // namespace kylix
