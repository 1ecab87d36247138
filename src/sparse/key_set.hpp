// Sorted sets of hashed index keys — the fundamental currency of Kylix.
//
// Every index set the allreduce touches (in/out sets, per-layer unions,
// per-neighbor partitions) is a KeySet: a strictly increasing vector of
// hashed keys. Keeping sets sorted makes unions linear-time merges (§VI-A)
// and makes equal-key-range partitioning a pair of binary searches.
#pragma once

#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/types.hpp"

namespace kylix {

/// Half-open range [lo, hi) of the 64-bit hashed key space.
struct KeyRange {
  key_t lo = 0;
  key_t hi = 0;  ///< exclusive; hi == 0 with lo == 0 denotes the full space

  /// The full 2^64 key space, represented as [0, 2^64) via the wrap at 0.
  static constexpr KeyRange full() { return KeyRange{0, 0}; }

  [[nodiscard]] constexpr bool is_full() const { return lo == 0 && hi == 0; }

  [[nodiscard]] constexpr bool contains(key_t k) const {
    if (is_full()) return true;
    return k >= lo && (hi == 0 ? true : k < hi);
  }

  /// Width as a long double (2^64 for the full range) — used only for
  /// proportional splitting, where rounding is irrelevant.
  [[nodiscard]] long double width() const {
    if (is_full()) return 18446744073709551616.0L;  // 2^64
    return static_cast<long double>(hi - lo);       // wraps correctly: hi>lo
  }

  /// Split into `parts` nearly-equal subranges and return subrange `which`.
  /// Subranges tile [lo, hi) exactly: part k is [bound(k), bound(k+1)).
  [[nodiscard]] KeyRange subrange(std::uint32_t which,
                                  std::uint32_t parts) const;

  friend bool operator==(const KeyRange&, const KeyRange&) = default;
};

/// An immutable-after-build, strictly sorted, duplicate-free set of keys.
class KeySet {
 public:
  KeySet() = default;

  /// Hash, sort, and dedup raw user indices.
  static KeySet from_indices(std::span<const index_t> indices);

  /// Adopt keys that may be unsorted / contain duplicates.
  static KeySet from_keys(std::vector<key_t> keys);

  /// Adopt keys that must already be strictly increasing, as
  /// check_strictly_increasing checks.
  static KeySet from_sorted_keys(std::vector<key_t> keys);

  /// One linear scan, in every build: throws check_error naming the first
  /// position where `keys` is not strictly increasing.
  static void check_strictly_increasing(std::span<const key_t> keys);

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] key_t operator[](std::size_t i) const { return keys_[i]; }
  [[nodiscard]] std::span<const key_t> keys() const { return keys_; }

  [[nodiscard]] auto begin() const { return keys_.begin(); }
  [[nodiscard]] auto end() const { return keys_.end(); }

  /// Un-hash all keys back to the original user indices, in key order.
  [[nodiscard]] std::vector<index_t> to_indices() const;

  /// Binary search for a key; returns its position or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t find(key_t key) const;

  [[nodiscard]] bool contains(key_t key) const { return find(key) != npos; }

  /// Positions [first, last) of keys lying inside `range` (binary searches).
  struct Slice {
    std::size_t first = 0;
    std::size_t last = 0;
    [[nodiscard]] std::size_t size() const { return last - first; }
  };
  [[nodiscard]] Slice slice(const KeyRange& range) const;

  /// The boundaries produced by splitting this set across `parts` equal
  /// subranges of `range`: result has parts+1 entries, entry p is the first
  /// position belonging to part >= p. Every key must lie inside `range`.
  [[nodiscard]] std::vector<std::size_t> split_points(
      const KeyRange& range, std::uint32_t parts) const;

  /// Copy out the keys at positions [first, last).
  [[nodiscard]] std::vector<key_t> extract(std::size_t first,
                                           std::size_t last) const;

  /// extract() into a caller-owned buffer (overwritten, capacity reused).
  void extract_into(std::size_t first, std::size_t last,
                    std::vector<key_t>& out) const;

  /// True iff every key of *this is also in `other` (both sorted: linear).
  [[nodiscard]] bool subset_of(const KeySet& other) const;

  friend bool operator==(const KeySet&, const KeySet&) = default;

 private:
  explicit KeySet(std::vector<key_t> sorted) : keys_(std::move(sorted)) {}

  std::vector<key_t> keys_;
};

}  // namespace kylix
