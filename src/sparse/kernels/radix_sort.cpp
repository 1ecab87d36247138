#include "sparse/kernels/radix_sort.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>

namespace kylix::kernels {

namespace {

constexpr std::size_t kRadixBits = 8;
constexpr std::size_t kBuckets = std::size_t{1} << kRadixBits;
constexpr std::size_t kPasses = 64 / kRadixBits;

/// Share of the probed keys (1/kProbeRepeatShare) that must be repeats for
/// the full filter pass to pay for itself: one filter step costs a fraction
/// of the eight radix passes a dropped key no longer takes.
constexpr std::size_t kProbeRepeatShare = 16;

/// Repeat-filter table: n/4 slots, capped so it stays cache-resident.
constexpr std::size_t kMaxFilterSlots = std::size_t{1} << 16;

/// Fibonacci hashing picks the slot from the product's top bits, so keys
/// that differ only in their high bytes still spread over the table.
constexpr key_t kSlotMultiplier = 0x9e3779b97f4a7c15ULL;

/// Filter keys[lo, hi) into keys[kept, ...): a key is dropped when its slot
/// holds an equal key, and otherwise kept and recorded in the slot. The
/// compare result advances the write cursor, so the loop has no
/// data-dependent branch. Returns the new write cursor.
std::size_t keep_unseen(key_t* keys, std::size_t lo, std::size_t hi,
                        std::size_t kept, key_t* table, unsigned shift) {
  for (std::size_t r = lo; r < hi; ++r) {
    const key_t x = keys[r];
    key_t& slot = table[(x * kSlotMultiplier) >> shift];
    keys[kept] = x;
    kept += static_cast<std::size_t>(slot != x);
    slot = x;
  }
  return kept;
}

/// Drop exact repeats from keys[0, n) in place (first copies stay, in input
/// order) through a direct-mapped "last kept key per slot" table held in
/// `table`, which needs min(n/4, kMaxFilterSlots) entries (at least 2). A
/// key is dropped only when it equals a key already kept, so the sorted,
/// deduplicated result is unchanged; slot collisions only let a repeat
/// through to the fused dedup. A probe of the leading keys gates the rest:
/// inputs that repeat little there (already-unique sets, fresh hashed keys)
/// pay for the probe alone. Returns the surviving size.
std::size_t drop_repeats(key_t* keys, std::size_t n, key_t* table) {
  const std::size_t slots =
      std::clamp<std::size_t>(std::bit_floor(n) / 4, 2, kMaxFilterSlots);
  const auto shift = static_cast<unsigned>(64 - std::countr_zero(slots));
  // Key 0 hashes to slot 0 and key 2^63 to slot slots/2, so after this fill
  // no slot holds a key that hashes to it: an empty slot matches nothing.
  std::fill(table, table + slots, key_t{0});
  table[0] = key_t{1} << 63;

  const std::size_t probe = std::min(n, kRepeatProbeKeys);
  const std::size_t kept = keep_unseen(keys, 0, probe, 0, table, shift);
  if ((probe - kept) * kProbeRepeatShare >= probe) {
    return keep_unseen(keys, probe, n, kept, table, shift);
  }
  // Too few repeats to pay for a full pass: close the probe's gaps.
  std::copy(keys + probe, keys + n, keys + kept);
  return kept + (n - probe);
}

/// Standard stable LSD distribution pass: src -> dst ordered by the digit at
/// `shift`, using the precomputed histogram `count`.
void distribute(const key_t* src, key_t* dst, std::size_t n,
                unsigned shift, const std::size_t* count) {
  std::array<std::size_t, kBuckets> offset;
  std::size_t sum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    offset[b] = sum;
    sum += count[b];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const key_t x = src[i];
    dst[offset[(x >> shift) & (kBuckets - 1)]++] = x;
  }
}

/// Final distribution pass with fused dedup. The input is already sorted by
/// every other (non-trivial) digit, so within one output bucket writes land
/// in ascending key order and a duplicate always equals the last key written
/// to its bucket. Skips leave gaps between buckets; the caller compacts in
/// bucket order when any were seen. Returns the deduped size.
std::size_t distribute_dedup(const key_t* src, key_t* dst, std::size_t n,
                             unsigned shift, const std::size_t* count) {
  std::array<std::size_t, kBuckets> start;
  std::array<std::size_t, kBuckets> offset;
  std::size_t sum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    start[b] = sum;
    offset[b] = sum;
    sum += count[b];
  }
  bool any_dup = false;
  for (std::size_t i = 0; i < n; ++i) {
    const key_t x = src[i];
    const std::size_t b = (x >> shift) & (kBuckets - 1);
    if (offset[b] != start[b] && dst[offset[b] - 1] == x) {
      any_dup = true;
      continue;
    }
    dst[offset[b]++] = x;
  }
  if (!any_dup) return n;
  // Close the inter-bucket gaps: slide each bucket's deduped run down, in
  // bucket order (moves only overlap forward, so memmove is safe).
  std::size_t write = offset[0] - start[0];
  for (std::size_t b = 1; b < kBuckets; ++b) {
    const std::size_t len = offset[b] - start[b];
    if (len != 0 && write != start[b]) {
      std::memmove(dst + write, dst + start[b], len * sizeof(key_t));
    }
    write += len;
  }
  return write;
}

}  // namespace

void radix_sort_dedup(std::vector<key_t>& keys, std::vector<key_t>& scratch) {
  std::size_t n = keys.size();
  if (n >= kRadixMinKeys) {
    if (scratch.size() < n) scratch.resize(n);
    // The filter table lives in the ping-pong buffer, which the passes
    // below overwrite anyway. `keys` keeps its size until the end, so a
    // swapped-in scratch stays full-sized for the next call.
    n = drop_repeats(keys.data(), n, scratch.data());
  }
  if (n < kRadixMinKeys) {
    keys.resize(n);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return;
  }

  // One streaming pass builds all eight digit histograms.
  static_assert(kPasses == 8);
  std::array<std::array<std::size_t, kBuckets>, kPasses> counts{};
  for (const key_t x : std::span<const key_t>(keys.data(), n)) {
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      ++counts[pass][(x >> (pass * kRadixBits)) & (kBuckets - 1)];
    }
  }

  // A pass whose digit is constant across all keys reorders nothing: skip
  // it. (The constant digit still participates in the sort order trivially,
  // which is what makes the fused dedup below correct even with skips.)
  std::array<std::size_t, kPasses> live{};
  std::size_t num_live = 0;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    const auto& c = counts[pass];
    if (std::none_of(c.begin(), c.end(),
                     [n](std::size_t v) { return v == n; })) {
      live[num_live++] = pass;
    }
  }
  if (num_live == 0) {
    // Every digit constant: all keys are equal.
    keys.resize(n == 0 ? 0 : 1);
    return;
  }

  key_t* bufs[2] = {keys.data(), scratch.data()};
  std::size_t src = 0;
  for (std::size_t i = 0; i + 1 < num_live; ++i) {
    const std::size_t pass = live[i];
    distribute(bufs[src], bufs[1 - src], n,
               static_cast<unsigned>(pass * kRadixBits),
               counts[pass].data());
    src = 1 - src;
  }
  const std::size_t last = live[num_live - 1];
  const std::size_t unique = distribute_dedup(
      bufs[src], bufs[1 - src], n, static_cast<unsigned>(last * kRadixBits),
      counts[last].data());
  if (1 - src != 0) keys.swap(scratch);  // result landed in the scratch
  keys.resize(unique);
}

void radix_sort_dedup(std::vector<key_t>& keys) {
  thread_local std::vector<key_t> scratch;
  radix_sort_dedup(keys, scratch);
}

}  // namespace kylix::kernels
