#include "sparse/key_set.hpp"

#include <algorithm>
#include <functional>

#include "sparse/kernels/radix_sort.hpp"

namespace kylix {

KeyRange KeyRange::subrange(std::uint32_t which, std::uint32_t parts) const {
  KYLIX_CHECK(parts > 0 && which < parts);
  // Width as a 128-bit count so the full space (2^64) is representable.
  const __uint128_t width128 =
      is_full() ? (static_cast<__uint128_t>(1) << 64)
                : static_cast<__uint128_t>(static_cast<key_t>(hi - lo));
  const auto offset_at = [&](std::uint32_t part) -> key_t {
    return lo + static_cast<key_t>(width128 * part / parts);
  };
  // Note offset_at(parts) wraps to `hi` exactly (mod 2^64), so subranges tile
  // the parent range with no gaps or overlaps.
  return KeyRange{offset_at(which), offset_at(which + 1)};
}

KeySet KeySet::from_indices(std::span<const index_t> indices) {
  std::vector<key_t> keys;
  keys.reserve(indices.size());
  for (index_t id : indices) keys.push_back(hash_index(id));
  return from_keys(std::move(keys));
}

KeySet KeySet::from_keys(std::vector<key_t> keys) {
  // Hashed keys are uniform over the 64-bit space — the ideal radix-sort
  // input. Below the tuning threshold this falls back to std::sort.
  kernels::radix_sort_dedup(keys);
  return KeySet(std::move(keys));
}

KeySet KeySet::from_sorted_keys(std::vector<key_t> keys) {
  check_strictly_increasing(keys);
  return KeySet(std::move(keys));
}

void KeySet::check_strictly_increasing(std::span<const key_t> keys) {
  // Checked in every build: an unsorted or repeating set would make
  // split_points and every later union silently wrong.
  const auto bad = std::adjacent_find(keys.begin(), keys.end(),
                                      std::greater_equal<key_t>());
  KYLIX_CHECK_MSG(bad == keys.end(),
                  "from_sorted_keys: keys must be strictly increasing, but "
                  "the key at position "
                      << (bad - keys.begin() + 1) << " "
                      << (bad[1] == bad[0] ? "repeats" : "is below")
                      << " the one before it");
}

std::vector<index_t> KeySet::to_indices() const {
  std::vector<index_t> out;
  out.reserve(keys_.size());
  for (key_t k : keys_) out.push_back(unhash_index(k));
  return out;
}

std::size_t KeySet::find(key_t key) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return npos;
  return static_cast<std::size_t>(it - keys_.begin());
}

KeySet::Slice KeySet::slice(const KeyRange& range) const {
  if (range.is_full()) return Slice{0, keys_.size()};
  const auto first = std::lower_bound(keys_.begin(), keys_.end(), range.lo);
  const auto last = range.hi == 0
                        ? keys_.end()
                        : std::lower_bound(first, keys_.end(), range.hi);
  return Slice{static_cast<std::size_t>(first - keys_.begin()),
               static_cast<std::size_t>(last - keys_.begin())};
}

std::vector<std::size_t> KeySet::split_points(const KeyRange& range,
                                              std::uint32_t parts) const {
  KYLIX_CHECK(parts > 0);
  std::vector<std::size_t> bounds(parts + 1);
  bounds[0] = 0;
  // Subrange upper bounds are monotone, so part p's search can resume where
  // part p-1 ended: a d-way split is one monotone sweep of narrowing binary
  // searches instead of d searches over the whole set.
  for (std::uint32_t p = 0; p < parts; ++p) {
    const KeyRange sub = range.subrange(p, parts);
    const auto first = keys_.begin() + static_cast<std::ptrdiff_t>(bounds[p]);
    const auto last = sub.hi == 0
                          ? keys_.end()
                          : std::lower_bound(first, keys_.end(), sub.hi);
    bounds[p + 1] = static_cast<std::size_t>(last - keys_.begin());
  }
  KYLIX_CHECK_MSG(bounds[parts] == keys_.size() &&
                      slice(range).size() == keys_.size(),
                  "split_points: keys outside the partition range");
  return bounds;
}

std::vector<key_t> KeySet::extract(std::size_t first, std::size_t last) const {
  KYLIX_DCHECK(first <= last && last <= keys_.size());
  return std::vector<key_t>(keys_.begin() + static_cast<std::ptrdiff_t>(first),
                            keys_.begin() + static_cast<std::ptrdiff_t>(last));
}

void KeySet::extract_into(std::size_t first, std::size_t last,
                          std::vector<key_t>& out) const {
  KYLIX_DCHECK(first <= last && last <= keys_.size());
  out.assign(keys_.begin() + static_cast<std::ptrdiff_t>(first),
             keys_.begin() + static_cast<std::ptrdiff_t>(last));
}

bool KeySet::subset_of(const KeySet& other) const {
  return std::includes(other.keys_.begin(), other.keys_.end(), keys_.begin(),
                       keys_.end());
}

}  // namespace kylix
