// Property tests for the vectorized sparse kernels (src/sparse/kernels/):
// every kernel is asserted equivalent to its scalar/standard-library
// counterpart over randomized sizes, duplicate densities, degenerate inputs,
// and the skewed shapes the fast paths specialize for.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "powerlaw/zipf.hpp"
#include "sparse/kernels/radix_sort.hpp"
#include "sparse/kernels/scatter_gather.hpp"
#include "sparse/merge.hpp"
#include "sparse/ops.hpp"

namespace kylix {
namespace {

// --- radix sort -------------------------------------------------------------

void expect_radix_matches_std(std::vector<key_t> keys) {
  std::vector<key_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  std::vector<key_t> scratch;
  kernels::radix_sort_dedup(keys, scratch);
  EXPECT_EQ(keys, expected);
}

TEST(RadixSort, DegenerateInputs) {
  expect_radix_matches_std({});
  expect_radix_matches_std({42});
  expect_radix_matches_std({7, 7});
  expect_radix_matches_std({9, 3});
  expect_radix_matches_std(std::vector<key_t>(5000, 123));  // all equal
}

TEST(RadixSort, RandomizedSizesAboveAndBelowTheStdSortCutoff) {
  Rng rng(101);
  for (const std::size_t n : {3u, 50u, 511u, 512u, 513u, 4096u, 50000u}) {
    std::vector<key_t> keys(n);
    for (auto& k : keys) k = rng();  // uniform over the full 64-bit space
    expect_radix_matches_std(std::move(keys));
  }
}

TEST(RadixSort, DuplicateHeavyInputs) {
  Rng rng(102);
  for (const std::size_t universe : {1u, 7u, 100u, 5000u}) {
    std::vector<key_t> keys(20000);
    // Hash to spread over all byte positions while keeping many duplicates.
    for (auto& k : keys) k = hash_index(rng.below(universe));
    expect_radix_matches_std(std::move(keys));
  }
}

TEST(RadixSort, SmallRangeKeysExerciseTrivialPassSkipping) {
  Rng rng(103);
  std::vector<key_t> low(10000);
  for (auto& k : low) k = rng.below(500);  // only the low two bytes vary
  expect_radix_matches_std(std::move(low));

  std::vector<key_t> high(10000);
  for (auto& k : high) k = rng.below(256) << 56;  // only the top byte varies
  expect_radix_matches_std(std::move(high));
}

TEST(RadixSort, ExtremeKeyValuesSurviveDedup) {
  std::vector<key_t> keys(2000);
  Rng rng(104);
  for (auto& k : keys) {
    const auto r = rng.below(4);
    k = r == 0 ? 0 : r == 1 ? ~key_t{0} : rng();
  }
  expect_radix_matches_std(std::move(keys));
}

TEST(RadixSort, ZipfMinibatchBatchLosesItsRepeatsToTheFilter) {
  // The minibatch shape: 32 Ki raw Zipf(1.1) feature draws over 2^20
  // features, about 70% of them repeats.
  const ZipfSampler zipf(std::uint64_t{1} << 20, 1.1);
  Rng rng(106);
  std::vector<key_t> keys(std::size_t{1} << 15);
  for (auto& k : keys) k = hash_index(zipf(rng) - 1);
  expect_radix_matches_std(std::move(keys));
}

TEST(RadixSort, FilterSentinelKeysAtBothEndsSurvive) {
  // The filter's table starts out holding 0 and 2^63; inputs that carry
  // either value as their first and last key must keep exactly one copy.
  Rng rng(107);
  for (const key_t sentinel : {key_t{0}, key_t{1} << 63}) {
    for (const std::size_t n : {std::size_t{600}, std::size_t{5000}}) {
      std::vector<key_t> keys(n);
      for (auto& k : keys) k = hash_index(rng.below(200));
      keys.front() = sentinel;
      keys.back() = sentinel;
      expect_radix_matches_std(keys);
      keys.back() = ~key_t{0};  // the sentinel appears once, first
      expect_radix_matches_std(keys);
      keys.front() = 1;  // ... and once, last
      keys.back() = sentinel;
      expect_radix_matches_std(std::move(keys));
    }
  }
}

TEST(RadixSort, SizesAtTheProbeLengthAndTheStdSortCutoff) {
  const std::size_t probe = kernels::kRepeatProbeKeys;
  const std::size_t cutoff = kernels::kRadixMinKeys;
  Rng rng(108);
  for (const std::size_t n : {probe - 1, probe, probe + 1, cutoff - 1,
                              cutoff, cutoff + 1}) {
    // Unique, repeat-heavy (the filter runs past the probe), and a handful
    // of leading repeats (the probe declines and closes its gaps).
    std::vector<key_t> unique(n);
    for (auto& k : unique) k = rng();
    expect_radix_matches_std(unique);
    std::vector<key_t> repeating(n);
    for (auto& k : repeating) k = hash_index(rng.below(n / 4 + 1));
    expect_radix_matches_std(std::move(repeating));
    for (std::size_t i = 1; i < 6; ++i) unique[i * 7] = unique[i];
    expect_radix_matches_std(std::move(unique));
  }
}

TEST(RadixSort, WarmScratchIsReusedAcrossShrinkingCalls) {
  Rng rng(105);
  std::vector<key_t> scratch;
  for (const std::size_t n : {60000u, 600u, 30000u}) {
    std::vector<key_t> keys(n);
    for (auto& k : keys) k = rng();
    std::vector<key_t> expected = keys;
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    kernels::radix_sort_dedup(keys, scratch);
    EXPECT_EQ(keys, expected);
  }
}

std::vector<key_t> random_sorted_unique(Rng& rng, std::size_t size,
                                        key_t universe) {
  std::set<key_t> keys;
  while (keys.size() < size) keys.insert(rng.below(universe));
  return std::vector<key_t>(keys.begin(), keys.end());
}

// --- galloping pairwise merge ----------------------------------------------

void expect_pairwise_union(const std::vector<key_t>& a,
                           const std::vector<key_t>& b) {
  const UnionResult r = merge_union(a, b);
  std::set<key_t> u(a.begin(), a.end());
  u.insert(b.begin(), b.end());
  EXPECT_EQ(r.keys, std::vector<key_t>(u.begin(), u.end()));
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(r.keys[r.maps[0][p]], a[p]);
  }
  for (std::size_t p = 0; p < b.size(); ++p) {
    EXPECT_EQ(r.keys[r.maps[1][p]], b[p]);
  }
}

TEST(GallopMerge, SkewedSizesTakeTheGallopPathBothWays) {
  Rng rng(401);
  const auto big = random_sorted_unique(rng, 50000, key_t{1} << 40);
  for (const std::size_t small_n : {0u, 1u, 3u, 100u}) {
    // Mix keys present in `big` (every other one) with fresh keys, so the
    // gallop hits both the equal and the in-between case.
    std::vector<key_t> small;
    for (std::size_t i = 0; i < small_n; ++i) {
      small.push_back(i % 2 == 0 ? big[rng.below(big.size())]
                                 : rng.below(key_t{1} << 40));
    }
    std::sort(small.begin(), small.end());
    small.erase(std::unique(small.begin(), small.end()), small.end());
    expect_pairwise_union(big, small);
    expect_pairwise_union(small, big);
  }
}

TEST(GallopMerge, ShortSideBeyondEveryLongKey) {
  const std::vector<key_t> big = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                  11, 12, 13, 14, 15, 16};
  expect_pairwise_union(big, {100});
  expect_pairwise_union(big, {0});
  expect_pairwise_union({100}, big);
}

// --- prefetched scatter/gather ---------------------------------------------

TEST(ScatterGather, PrefetchedMatchesScalarAcrossSizes) {
  Rng rng(501);
  for (const std::size_t n : {0u, 1u, 7u, 19u, 21u, 1000u, 100000u}) {
    const std::size_t acc_size = n + 1;
    std::vector<float> values(n);
    PosMap map(n);
    for (std::size_t p = 0; p < n; ++p) {
      values[p] = static_cast<float>(rng.uniform());
      map[p] = static_cast<pos_t>(rng.below(acc_size));
    }
    std::vector<float> acc_fast(acc_size, 1.0f);
    std::vector<float> acc_ref(acc_size, 1.0f);
    kernels::scatter_combine<float, OpSum>(std::span<float>(acc_fast), values,
                                           map, {});
    kernels::scatter_combine_scalar<float, OpSum>(std::span<float>(acc_ref),
                                                  values, map, {});
    EXPECT_EQ(acc_fast, acc_ref) << "scatter n=" << n;

    std::vector<float> out_fast(n), out_ref(n);
    kernels::gather<float>(std::span<const float>(acc_fast), map,
                           out_fast.data());
    kernels::gather_scalar<float>(std::span<const float>(acc_fast), map,
                                  out_ref.data());
    EXPECT_EQ(out_fast, out_ref) << "gather n=" << n;
  }
}

TEST(ScatterGather, StrictlyIncreasingMapsStayBitIdentical) {
  // The node hot path always scatters through strictly increasing maps
  // (piece keys are strictly sorted); combine order per slot is then a
  // single op, so fast and scalar must agree bitwise even for floats.
  Rng rng(502);
  const std::size_t n = 50000;
  std::vector<float> values(n);
  PosMap map(n);
  pos_t pos = 0;
  for (std::size_t p = 0; p < n; ++p) {
    values[p] = static_cast<float>(rng.uniform()) * 3.7f;
    pos += 1 + static_cast<pos_t>(rng.below(3));
    map[p] = pos;
  }
  std::vector<float> acc_fast(pos + 1, 0.25f);
  std::vector<float> acc_ref(pos + 1, 0.25f);
  kernels::scatter_combine<float, OpSum>(std::span<float>(acc_fast), values,
                                         map, {});
  kernels::scatter_combine_scalar<float, OpSum>(std::span<float>(acc_ref),
                                                values, map, {});
  EXPECT_EQ(acc_fast, acc_ref);
}

// A strided scatter/gather over k interleaved payloads must equal k
// independent stride-1 calls, component by component — for float and
// double alike (the plan executor's multi-payload contract).
template <typename V>
void expect_strided_matches_per_component(std::size_t n, std::size_t stride,
                                          std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t acc_size = n + 1;
  PosMap map(n);
  std::vector<V> values(n * stride);
  for (std::size_t p = 0; p < n; ++p) {
    map[p] = static_cast<pos_t>(rng.below(acc_size));
    for (std::size_t c = 0; c < stride; ++c) {
      values[p * stride + c] = static_cast<V>(rng.uniform());
    }
  }
  std::vector<V> acc_strided(acc_size * stride, V{1});
  kernels::scatter_combine_strided<V, OpSum>(std::span<V>(acc_strided),
                                             values, map, stride, {});
  for (std::size_t c = 0; c < stride; ++c) {
    std::vector<V> component(n);
    for (std::size_t p = 0; p < n; ++p) component[p] = values[p * stride + c];
    std::vector<V> acc(acc_size, V{1});
    kernels::scatter_combine_scalar<V, OpSum>(std::span<V>(acc), component,
                                              map, {});
    for (std::size_t a = 0; a < acc_size; ++a) {
      ASSERT_EQ(acc_strided[a * stride + c], acc[a])
          << "scatter slot " << a << " component " << c;
    }
  }

  std::vector<V> out_strided(n * stride);
  kernels::gather_strided<V>(std::span<const V>(acc_strided), map, stride,
                             out_strided.data());
  for (std::size_t c = 0; c < stride; ++c) {
    for (std::size_t p = 0; p < n; ++p) {
      ASSERT_EQ(out_strided[p * stride + c],
                acc_strided[map[p] * stride + c])
          << "gather position " << p << " component " << c;
    }
  }
}

TEST(ScatterGatherStrided, MatchesPerComponentFloat) {
  for (const std::size_t n : {0u, 1u, 19u, 1000u, 20000u}) {
    expect_strided_matches_per_component<float>(n, 3, 801 + n);
  }
}

TEST(ScatterGatherStrided, MatchesPerComponentDouble) {
  for (const std::size_t stride : {1u, 2u, 4u, 8u}) {
    expect_strided_matches_per_component<double>(5000, stride, 802 + stride);
  }
}

TEST(ScatterGatherStrided, StrideOneDelegatesToUnstridedKernels) {
  Rng rng(803);
  const std::size_t n = 10000;
  std::vector<double> values(n);
  PosMap map(n);
  for (std::size_t p = 0; p < n; ++p) {
    values[p] = rng.uniform();
    map[p] = static_cast<pos_t>(rng.below(n + 1));
  }
  std::vector<double> acc_strided(n + 1, 0.5);
  std::vector<double> acc_plain(n + 1, 0.5);
  kernels::scatter_combine_strided<double, OpSum>(
      std::span<double>(acc_strided), values, map, 1, {});
  kernels::scatter_combine<double, OpSum>(std::span<double>(acc_plain),
                                          values, map, {});
  EXPECT_EQ(acc_strided, acc_plain);

  std::vector<double> out_strided(n), out_plain(n);
  kernels::gather_strided<double>(std::span<const double>(acc_plain), map, 1,
                                  out_strided.data());
  kernels::gather<double>(std::span<const double>(acc_plain), map,
                          out_plain.data());
  EXPECT_EQ(out_strided, out_plain);
}

TEST(ScatterGatherStrided, OffsetFormCombinesIntoTheTargetRange) {
  // A strictly increasing map (one piece's positions in a union), combined
  // in part into a buffer that holds only union positions [base, hi): the
  // same slots end up with the same bits as a combine into the whole union.
  for (const std::size_t stride : {1u, 3u, 8u}) {
    SCOPED_TRACE("stride " + std::to_string(stride));
    Rng rng(804 + stride);
    const std::size_t union_size = 6000;
    PosMap map;
    for (pos_t p = 0; p < union_size; ++p) {
      if (rng.uniform() < 0.4) map.push_back(p);
    }
    std::vector<float> values(map.size() * stride);
    for (float& v : values) v = static_cast<float>(rng.uniform()) * 0.3f;
    std::vector<float> whole(union_size * stride, 0.25f);
    kernels::scatter_combine_strided<float, OpSum>(std::span<float>(whole),
                                                   values, map, stride, {});

    const std::size_t base = 1234;
    const std::size_t hi = 4321;
    const std::size_t a =
        std::lower_bound(map.begin(), map.end(), base) - map.begin();
    const std::size_t b =
        std::lower_bound(map.begin(), map.end(), hi) - map.begin();
    std::vector<float> part((hi - base) * stride, 0.25f);
    kernels::scatter_combine_strided<float, OpSum>(
        std::span<float>(part),
        std::span<const float>(values).subspan(a * stride, (b - a) * stride),
        std::span<const pos_t>(map).subspan(a, b - a), stride, {}, base);
    for (std::size_t i = 0; i < part.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(part[i]),
                std::bit_cast<std::uint32_t>(whole[base * stride + i]))
          << "value " << i;
    }
  }
}

// --- split_points monotone sweep -------------------------------------------

TEST(SplitPoints, SweepMatchesPerPartSlices) {
  Rng rng(601);
  for (const std::uint32_t parts : {1u, 2u, 7u, 16u, 64u}) {
    std::vector<key_t> keys(3000);
    for (auto& k : keys) k = rng();
    const KeySet set = KeySet::from_keys(std::move(keys));
    const auto bounds = set.split_points(KeyRange::full(), parts);
    ASSERT_EQ(bounds.size(), parts + 1u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), set.size());
    for (std::uint32_t p = 0; p < parts; ++p) {
      const KeySet::Slice s = set.slice(KeyRange::full().subrange(p, parts));
      EXPECT_EQ(bounds[p], s.first) << "part " << p;
      EXPECT_EQ(bounds[p + 1], s.last) << "part " << p;
    }
  }
}

// --- from_pairs -------------------------------------------------------------

TEST(FromPairs, CombinesDuplicatesWithoutPerElementLookup) {
  const std::vector<index_t> indices = {9, 2, 9, 5, 2, 9};
  const std::vector<float> vals = {1.0f, 2.0f, 4.0f, 8.0f, 16.0f, 32.0f};
  const auto sv = SparseVector<float>::from_pairs(indices, vals);
  ASSERT_EQ(sv.size(), 3u);
  const auto at = [&](index_t id) {
    return sv.values[sv.keys.find(hash_index(id))];
  };
  EXPECT_EQ(at(9), 1.0f + 4.0f + 32.0f);
  EXPECT_EQ(at(2), 2.0f + 16.0f);
  EXPECT_EQ(at(5), 8.0f);
}

TEST(FromPairs, RandomizedAgainstMapOracle) {
  Rng rng(701);
  for (const std::size_t n : {0u, 1u, 100u, 5000u}) {
    std::vector<index_t> indices(n);
    std::vector<double> vals(n);
    std::map<index_t, double> oracle;
    for (std::size_t p = 0; p < n; ++p) {
      indices[p] = rng.below(n / 3 + 1);
      vals[p] = rng.uniform();
      oracle[indices[p]] += vals[p];
    }
    const auto sv = SparseVector<double>::from_pairs(
        indices, std::span<const double>(vals));
    ASSERT_EQ(sv.size(), oracle.size());
    for (const auto& [id, total] : oracle) {
      const std::size_t pos = sv.keys.find(hash_index(id));
      ASSERT_NE(pos, KeySet::npos);
      EXPECT_DOUBLE_EQ(sv.values[pos], total);
    }
  }
}

}  // namespace
}  // namespace kylix
