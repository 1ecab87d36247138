// LSD radix sort for 64-bit hashed keys, with dedup fused into the last pass.
//
// Kylix keys are splitmix64-hashed indices (common/hash.hpp), so they are
// uniform over the full 64-bit space — the ideal case for a radix sort: every
// 8-bit digit histogram is flat and each of the 8 passes is a streaming
// scatter at memory speed, O(n) total versus std::sort's O(n log n) with a
// branch per compare.
//
// Before the passes, a repeat filter drops exact repeats through a small
// direct-mapped "last kept key per slot" table: raw minibatch indices repeat
// heavily (a Zipf batch of 32 Ki indices holds about 10 K distinct keys), and
// every dropped key skips all eight passes. A probe of the leading keys
// decides whether the input repeats enough to filter the rest.
//
// Two classic refinements:
//  * one up-front pass builds all eight digit histograms, and any pass whose
//    histogram puts every key in a single bucket is skipped (un-hashed test
//    keys with small ranges sort in 1-2 passes instead of 8);
//  * the final pass dedups while it scatters: within one output bucket,
//    writes land in ascending key order, so a duplicate is detected by
//    comparing against the last key written to its bucket. Skipped
//    duplicates leave gaps between buckets, which a bucket-order compaction
//    closes — and when no duplicate was seen (the common case for
//    already-unique sets) the compaction is a no-op scan over 256 counters.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace kylix::kernels {

/// Leading keys the repeat filter inspects before deciding whether the rest
/// of the input repeats enough to be worth filtering.
inline constexpr std::size_t kRepeatProbeKeys = 1024;

/// Below this many keys std::sort beats the 8-pass radix sort (histogram
/// and ping-pong setup dominate at small n); measured by bench/micro_kernels.
inline constexpr std::size_t kRadixMinKeys = 512;

/// Sort `keys` ascending and remove duplicates, using `scratch` as the
/// repeat-filter table and ping-pong buffer (grown as needed, never shrunk —
/// steady-state reuse is allocation-free). Inputs below kRadixMinKeys,
/// before or after the filter, go through std::sort +
/// std::unique. Equivalent to
/// `std::sort(keys); keys.erase(std::unique(keys), keys.end());`.
void radix_sort_dedup(std::vector<key_t>& keys, std::vector<key_t>& scratch);

/// Convenience overload with a thread-local scratch buffer (one per thread,
/// warmed across calls). Used by KeySet::from_keys / from_indices.
void radix_sort_dedup(std::vector<key_t>& keys);

}  // namespace kylix::kernels
