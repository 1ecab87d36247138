#include "sparse/merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/rng.hpp"

namespace kylix {
namespace {

std::vector<key_t> random_sorted_unique(Rng& rng, std::size_t size,
                                        key_t universe) {
  std::set<key_t> keys;
  while (keys.size() < size) keys.insert(rng.below(universe));
  return std::vector<key_t>(keys.begin(), keys.end());
}

/// The defining property of a union-with-maps: union[map[p]] == input[p].
void expect_maps_valid(const UnionResult& result,
                       const std::vector<std::vector<key_t>>& inputs) {
  ASSERT_EQ(result.maps.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(result.maps[i].size(), inputs[i].size()) << "input " << i;
    for (std::size_t p = 0; p < inputs[i].size(); ++p) {
      ASSERT_LT(result.maps[i][p], result.keys.size());
      EXPECT_EQ(result.keys[result.maps[i][p]], inputs[i][p])
          << "input " << i << " position " << p;
    }
  }
}

std::vector<key_t> set_union_oracle(
    const std::vector<std::vector<key_t>>& inputs) {
  std::set<key_t> u;
  for (const auto& in : inputs) u.insert(in.begin(), in.end());
  return std::vector<key_t>(u.begin(), u.end());
}

TEST(MergeUnion, DisjointInputsConcatenate) {
  const UnionResult r = merge_union(std::vector<key_t>{1, 3, 5},
                                    std::vector<key_t>{2, 4, 6});
  EXPECT_EQ(r.keys, (std::vector<key_t>{1, 2, 3, 4, 5, 6}));
  expect_maps_valid(r, {{1, 3, 5}, {2, 4, 6}});
}

TEST(MergeUnion, OverlappingKeysCollapse) {
  const UnionResult r = merge_union(std::vector<key_t>{1, 2, 3},
                                    std::vector<key_t>{2, 3, 4});
  EXPECT_EQ(r.keys, (std::vector<key_t>{1, 2, 3, 4}));
  expect_maps_valid(r, {{1, 2, 3}, {2, 3, 4}});
  // Shared keys map to the same union slot (this is what makes reduction
  // collapse sparse contributions).
  EXPECT_EQ(r.maps[0][1], r.maps[1][0]);
  EXPECT_EQ(r.maps[0][2], r.maps[1][1]);
}

TEST(MergeUnion, EmptySides) {
  const std::vector<key_t> some = {7, 9};
  UnionResult r = merge_union(some, {});
  EXPECT_EQ(r.keys, some);
  r = merge_union({}, some);
  EXPECT_EQ(r.keys, some);
  r = merge_union({}, {});
  EXPECT_TRUE(r.keys.empty());
}

TEST(MergeUnion, IdenticalInputsGiveIdentityMaps) {
  const std::vector<key_t> keys = {1, 5, 9};
  const UnionResult r = merge_union(keys, keys);
  EXPECT_EQ(r.keys, keys);
  for (std::size_t p = 0; p < keys.size(); ++p) {
    EXPECT_EQ(r.maps[0][p], p);
    EXPECT_EQ(r.maps[1][p], p);
  }
}

class TreeMergeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TreeMergeTest, MatchesOracleWithValidMaps) {
  const std::size_t ways = GetParam();
  Rng rng(ways);
  std::vector<std::vector<key_t>> inputs;
  for (std::size_t i = 0; i < ways; ++i) {
    inputs.push_back(random_sorted_unique(rng, 20 + rng.below(50), 300));
  }
  const UnionResult r = tree_merge(inputs);
  EXPECT_EQ(r.keys, set_union_oracle(inputs));
  expect_maps_valid(r, inputs);
}

INSTANTIATE_TEST_SUITE_P(Ways, TreeMergeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16, 64));

TEST(TreeMerge, ZeroInputsGivesEmpty) {
  const UnionResult r = tree_merge(std::vector<std::vector<key_t>>{});
  EXPECT_TRUE(r.keys.empty());
  EXPECT_TRUE(r.maps.empty());
}

TEST(TreeMerge, SomeInputsEmpty) {
  std::vector<std::vector<key_t>> inputs = {{}, {1, 2}, {}, {2, 3}, {}};
  const UnionResult r = tree_merge(inputs);
  EXPECT_EQ(r.keys, (std::vector<key_t>{1, 2, 3}));
  expect_maps_valid(r, inputs);
}

TEST(TreeMerge, HeavilyOverlappingPowerLawLikeInputs) {
  // Mimics the workload the merge exists for: many sets sharing a hot head.
  Rng rng(77);
  std::vector<std::vector<key_t>> inputs;
  for (int i = 0; i < 16; ++i) {
    std::set<key_t> keys;
    for (int j = 0; j < 40; ++j) keys.insert(rng.below(30));    // hot head
    for (int j = 0; j < 10; ++j) keys.insert(rng.below(10000));  // tail
    inputs.emplace_back(keys.begin(), keys.end());
  }
  const UnionResult r = tree_merge(inputs);
  EXPECT_EQ(r.keys, set_union_oracle(inputs));
  expect_maps_valid(r, inputs);
  // Collapse happened: the union is far smaller than the total input.
  std::size_t total = 0;
  for (const auto& in : inputs) total += in.size();
  EXPECT_LT(r.keys.size(), total / 2);
}

TEST(TreeMergeScratch, ReusedScratchMatchesFreshCallsAcrossShapes) {
  // One scratch + one output driven through wildly varying input shapes —
  // exactly how KylixNode reuses them layer after layer — must produce the
  // same result as a fresh allocating call every time.
  Rng rng(123);
  MergeScratch scratch;
  UnionResult out;
  for (std::size_t ways : {5u, 1u, 16u, 2u, 64u, 3u, 0u, 7u}) {
    std::vector<std::vector<key_t>> inputs;
    for (std::size_t i = 0; i < ways; ++i) {
      inputs.push_back(random_sorted_unique(rng, 5 + rng.below(80), 400));
    }
    std::vector<std::span<const key_t>> spans(inputs.begin(), inputs.end());
    tree_merge_into(spans, out, scratch);
    const UnionResult fresh = tree_merge(spans);
    EXPECT_EQ(out.keys, fresh.keys) << ways << " ways";
    EXPECT_EQ(out.maps, fresh.maps) << ways << " ways";
    expect_maps_valid(out, inputs);
  }
}

TEST(TreeMergeScratch, EmptyAndSingleInputEdgeCases) {
  MergeScratch scratch;
  UnionResult out;
  // Pre-dirty the output with an unrelated merge.
  const std::vector<std::vector<key_t>> dirty = {{1, 2, 3}, {4, 5}};
  std::vector<std::span<const key_t>> dirty_spans(dirty.begin(), dirty.end());
  tree_merge_into(dirty_spans, out, scratch);

  // k == 0: everything clears.
  tree_merge_into({}, out, scratch);
  EXPECT_TRUE(out.keys.empty());
  EXPECT_TRUE(out.maps.empty());

  // k == 1: identity map, keys copied.
  const std::vector<key_t> single = {10, 20, 30};
  const std::span<const key_t> single_span(single);
  tree_merge_into(std::span<const std::span<const key_t>>(&single_span, 1),
                  out, scratch);
  EXPECT_EQ(out.keys, single);
  ASSERT_EQ(out.maps.size(), 1u);
  EXPECT_EQ(out.maps[0], (PosMap{0, 1, 2}));

  // All-empty inputs: empty union with empty-but-present maps.
  const std::vector<std::vector<key_t>> empties(5);
  std::vector<std::span<const key_t>> empty_spans(empties.begin(),
                                                  empties.end());
  tree_merge_into(empty_spans, out, scratch);
  EXPECT_TRUE(out.keys.empty());
  ASSERT_EQ(out.maps.size(), 5u);
  for (const PosMap& map : out.maps) EXPECT_TRUE(map.empty());
}

TEST(MergeUnionInto, ReusesCallerBuffers) {
  const std::vector<key_t> a = {1, 4, 6};
  const std::vector<key_t> b = {2, 4, 9};
  std::vector<key_t> keys = {99, 98, 97, 96, 95};  // stale content
  PosMap map_a = {7, 7, 7, 7};
  PosMap map_b;
  merge_union_into(a, b, keys, map_a, map_b);
  EXPECT_EQ(keys, (std::vector<key_t>{1, 2, 4, 6, 9}));
  EXPECT_EQ(map_a, (PosMap{0, 2, 3}));
  EXPECT_EQ(map_b, (PosMap{1, 2, 4}));
}

/// merge_union_into into dirty, mis-sized buffers against the oracle: the
/// sorted set union, and maps that address every input key in it.
void expect_pairwise_matches_oracle(const std::vector<key_t>& a,
                                    const std::vector<key_t>& b) {
  std::vector<key_t> keys(a.size() + 3, 77);
  PosMap map_a(b.size() + 1, 5);
  PosMap map_b(3, 9);
  merge_union_into(a, b, keys, map_a, map_b);
  const UnionResult r{keys, {map_a, map_b}};
  EXPECT_EQ(r.keys, set_union_oracle({a, b}))
      << "|a|=" << a.size() << " |b|=" << b.size();
  expect_maps_valid(r, {a, b});
}

TEST(MergeUnionInto, SizesAroundTheGallopRatioBothWays) {
  const std::size_t ratio = kGallopRatio;
  Rng rng(301);
  for (const std::size_t big_n : {ratio * 4, ratio * 300}) {
    const auto big = random_sorted_unique(rng, big_n, key_t{1} << 20);
    // |big| / |small| lands at the ratio (gallop), just below it and at 1
    // (branch-free loop); half the small keys are drawn from `big`.
    for (const std::size_t small_n :
         {big_n / ratio, big_n / ratio + 1, big_n / 2, big_n}) {
      std::set<key_t> picked;
      while (picked.size() < small_n) {
        picked.insert(rng.below(2) == 0 ? big[rng.below(big.size())]
                                        : rng.below(key_t{1} << 20));
      }
      const std::vector<key_t> small(picked.begin(), picked.end());
      expect_pairwise_matches_oracle(big, small);
      expect_pairwise_matches_oracle(small, big);
    }
  }
}

TEST(MergeUnionInto, EdgeShapes) {
  std::vector<key_t> evens;
  std::vector<key_t> odds;
  for (key_t k = 0; k < 4000; k += 2) {
    evens.push_back(k);
    odds.push_back(k + 1);
  }
  expect_pairwise_matches_oracle(evens, evens);  // full overlap
  expect_pairwise_matches_oracle(evens, odds);   // disjoint, interleaved
  expect_pairwise_matches_oracle(odds, evens);
  const std::vector<key_t> extremes = {0, 3, ~key_t{0} - 1, ~key_t{0}};
  expect_pairwise_matches_oracle(extremes, {0, 1, 2, ~key_t{0}});
  expect_pairwise_matches_oracle({~key_t{0}}, {0});
  expect_pairwise_matches_oracle(extremes, {});
  expect_pairwise_matches_oracle({}, extremes);
  expect_pairwise_matches_oracle({}, {});
}

/// The base-offset forms against the base-0 union: the same keys, and
/// every map entry shifted by `base`, written in place into views of one
/// larger buffer whose other entries stay untouched.
void expect_offset_union(const std::vector<std::vector<key_t>>& inputs,
                         pos_t base) {
  SCOPED_TRACE(std::to_string(inputs.size()) + " ways, base " +
               std::to_string(base));
  const UnionResult plain = tree_merge(inputs);
  constexpr pos_t kUntouched = 0xdeadbeef;
  std::size_t total = 0;
  for (const auto& in : inputs) total += in.size();
  PosMap buffer(total + 2, kUntouched);  // one guard entry each side
  std::vector<std::span<const key_t>> spans(inputs.begin(), inputs.end());
  std::vector<std::span<pos_t>> maps;
  std::size_t at = 1;
  for (const auto& in : inputs) {
    maps.push_back(std::span<pos_t>(buffer).subspan(at, in.size()));
    at += in.size();
  }
  std::vector<key_t> keys = {99, 98, 97};  // stale content
  MergeScratch scratch;
  tree_merge_into(spans, keys, maps, base, scratch);
  EXPECT_EQ(keys, plain.keys);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t p = 0; p < inputs[i].size(); ++p) {
      EXPECT_EQ(maps[i][p], plain.maps[i][p] + base)
          << "input " << i << " position " << p;
    }
  }
  EXPECT_EQ(buffer.front(), kUntouched);
  EXPECT_EQ(buffer.back(), kUntouched);
  if (inputs.size() == 2) {
    std::vector<key_t> pair_keys(5, 77);
    PosMap map_a(inputs[0].size(), kUntouched);
    PosMap map_b(inputs[1].size(), kUntouched);
    merge_union_into(inputs[0], inputs[1], pair_keys, std::span<pos_t>(map_a),
                     std::span<pos_t>(map_b), base);
    EXPECT_EQ(pair_keys, plain.keys);
    for (std::size_t p = 0; p < map_a.size(); ++p) {
      EXPECT_EQ(map_a[p], plain.maps[0][p] + base);
    }
    for (std::size_t p = 0; p < map_b.size(); ++p) {
      EXPECT_EQ(map_b[p], plain.maps[1][p] + base);
    }
  }
}

TEST(MergeUnionInto, BaseOffsetShiftsBalancedGallopingAndEmptyUnions) {
  Rng rng(417);
  const auto a = random_sorted_unique(rng, 300, 2000);
  const auto b = random_sorted_unique(rng, 280, 2000);
  expect_offset_union({a, b}, 1000);  // balanced: the branch-free loop
  const auto big = random_sorted_unique(rng, 64 * kGallopRatio, 1u << 20);
  const auto small = random_sorted_unique(rng, 64, 1u << 20);
  expect_offset_union({big, small}, 123456);  // galloping, both ways
  expect_offset_union({small, big}, 7);
  expect_offset_union({a, {}}, 5);  // empty sides
  expect_offset_union({{}, a}, 5);
  expect_offset_union({{}, {}}, 5);
  expect_offset_union({a, b}, 0);
}

TEST(TreeMergeScratch, BaseOffsetShiftsEveryWayCount) {
  Rng rng(418);
  for (const std::size_t ways : {1u, 3u, 4u, 8u}) {
    std::vector<std::vector<key_t>> inputs;
    for (std::size_t i = 0; i < ways; ++i) {
      inputs.push_back(random_sorted_unique(rng, 20 + rng.below(200), 900));
    }
    expect_offset_union(inputs, static_cast<pos_t>(31 * ways));
    inputs[ways / 2].clear();  // an empty piece among them
    expect_offset_union(inputs, static_cast<pos_t>(1 + ways));
  }
}

class HashUnionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashUnionTest, SameSetAsTreeMergeWithValidMaps) {
  const std::size_t ways = GetParam();
  Rng rng(1000 + ways);
  std::vector<std::vector<key_t>> input_vecs;
  for (std::size_t i = 0; i < ways; ++i) {
    input_vecs.push_back(random_sorted_unique(rng, 30, 200));
  }
  std::vector<std::span<const key_t>> inputs(input_vecs.begin(),
                                             input_vecs.end());
  const UnionResult r = hash_union(inputs);
  // hash_union's union is insertion-ordered, not sorted; compare as sets.
  std::vector<key_t> sorted = r.keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, set_union_oracle(input_vecs));
  expect_maps_valid(r, input_vecs);
}

INSTANTIATE_TEST_SUITE_P(Ways, HashUnionTest, ::testing::Values(1, 2, 8, 16));

}  // namespace
}  // namespace kylix
