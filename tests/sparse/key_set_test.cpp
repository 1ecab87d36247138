#include "sparse/key_set.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

TEST(KeyRange, FullRangeContainsEverything) {
  const KeyRange full = KeyRange::full();
  EXPECT_TRUE(full.is_full());
  EXPECT_TRUE(full.contains(0));
  EXPECT_TRUE(full.contains(~key_t{0}));
  EXPECT_TRUE(full.contains(123456789));
}

TEST(KeyRange, SubrangesTileTheParentExactly) {
  const KeyRange full = KeyRange::full();
  for (std::uint32_t parts : {2u, 3u, 4u, 7u, 64u}) {
    key_t expected_lo = 0;
    for (std::uint32_t p = 0; p < parts; ++p) {
      const KeyRange sub = full.subrange(p, parts);
      EXPECT_EQ(sub.lo, expected_lo) << parts << " parts, part " << p;
      expected_lo = sub.hi;
    }
    EXPECT_EQ(expected_lo, 0u);  // last hi wraps to 2^64 == 0
  }
}

TEST(KeyRange, NestedSubrangesTileToo) {
  const KeyRange outer = KeyRange::full().subrange(2, 5);
  key_t expected_lo = outer.lo;
  for (std::uint32_t p = 0; p < 3; ++p) {
    const KeyRange sub = outer.subrange(p, 3);
    EXPECT_EQ(sub.lo, expected_lo);
    expected_lo = sub.hi;
  }
  EXPECT_EQ(expected_lo, outer.hi);
}

TEST(KeyRange, ContainsMatchesBounds) {
  const KeyRange range{100, 200};
  EXPECT_FALSE(range.contains(99));
  EXPECT_TRUE(range.contains(100));
  EXPECT_TRUE(range.contains(199));
  EXPECT_FALSE(range.contains(200));
}

TEST(KeyRange, EveryKeyBelongsToExactlyOneSubrange) {
  Rng rng(5);
  const KeyRange full = KeyRange::full();
  for (int trial = 0; trial < 2000; ++trial) {
    const key_t k = rng();
    int owners = 0;
    for (std::uint32_t p = 0; p < 8; ++p) {
      if (full.subrange(p, 8).contains(k)) ++owners;
    }
    EXPECT_EQ(owners, 1) << "key " << k;
  }
}

TEST(KeyRange, SubrangeRejectsBadArguments) {
  EXPECT_THROW((void)KeyRange::full().subrange(3, 3), check_error);
  EXPECT_THROW((void)KeyRange::full().subrange(0, 0), check_error);
}

TEST(KeySet, FromIndicesSortsAndDedups) {
  const std::vector<index_t> ids = {5, 1, 5, 9, 1, 1};
  const KeySet set = KeySet::from_indices(ids);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
}

TEST(KeySet, ToIndicesRoundTrips) {
  const std::vector<index_t> ids = {42, 7, 1000000, 3};
  const KeySet set = KeySet::from_indices(ids);
  std::vector<index_t> back = set.to_indices();
  std::sort(back.begin(), back.end());
  EXPECT_EQ(back, (std::vector<index_t>{3, 7, 42, 1000000}));
}

TEST(KeySet, FindLocatesAllMembers) {
  const std::vector<index_t> ids = {10, 20, 30, 40};
  const KeySet set = KeySet::from_indices(ids);
  for (index_t id : ids) {
    const std::size_t pos = set.find(hash_index(id));
    ASSERT_NE(pos, KeySet::npos);
    EXPECT_EQ(set[pos], hash_index(id));
  }
  EXPECT_EQ(set.find(hash_index(99)), KeySet::npos);
  EXPECT_TRUE(set.contains(hash_index(10)));
  EXPECT_FALSE(set.contains(hash_index(11)));
}

TEST(KeySet, EmptySetBehaves) {
  const KeySet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.find(123), KeySet::npos);
  EXPECT_EQ(set.slice(KeyRange::full()).size(), 0u);
  EXPECT_TRUE(set.subset_of(set));
}

TEST(KeySet, SliceMatchesLinearScan) {
  Rng rng(21);
  std::vector<key_t> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng());
  const KeySet set = KeySet::from_keys(keys);
  for (std::uint32_t p = 0; p < 4; ++p) {
    const KeyRange range = KeyRange::full().subrange(p, 4);
    const KeySet::Slice slice = set.slice(range);
    std::size_t expected = 0;
    for (key_t k : set) {
      if (range.contains(k)) ++expected;
    }
    EXPECT_EQ(slice.size(), expected);
    for (std::size_t i = slice.first; i < slice.last; ++i) {
      EXPECT_TRUE(range.contains(set[i]));
    }
  }
}

class SplitPointsTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(SplitPointsTest, TilesTheSet) {
  const auto [parts, size] = GetParam();
  Rng rng(parts * 1000 + size);
  std::vector<key_t> keys;
  for (int i = 0; i < size; ++i) keys.push_back(rng());
  const KeySet set = KeySet::from_keys(keys);
  const auto bounds = set.split_points(KeyRange::full(), parts);
  ASSERT_EQ(bounds.size(), parts + 1);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), set.size());
  for (std::uint32_t p = 0; p < parts; ++p) {
    EXPECT_LE(bounds[p], bounds[p + 1]);
    const KeyRange sub = KeyRange::full().subrange(p, parts);
    for (std::size_t i = bounds[p]; i < bounds[p + 1]; ++i) {
      EXPECT_TRUE(sub.contains(set[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SplitPointsTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 8u, 64u),
                       ::testing::Values(0, 1, 17, 1000)));

TEST(KeySet, SplitPointsRejectsKeysOutsideRange) {
  const KeySet set = KeySet::from_keys({1, ~key_t{0} / 2, ~key_t{0} - 1});
  const KeyRange narrow = KeyRange::full().subrange(0, 4);
  EXPECT_THROW(set.split_points(narrow, 2), check_error);
}

TEST(KeySet, ExtractCopiesSlice) {
  const KeySet set = KeySet::from_keys({10, 20, 30, 40, 50});
  EXPECT_EQ(set.extract(1, 4), (std::vector<key_t>{20, 30, 40}));
  EXPECT_TRUE(set.extract(2, 2).empty());
}

TEST(KeySet, FromSortedKeysUnsortedThrows) {
  testing::expect_check_message(
      [] { (void)KeySet::from_sorted_keys({1, 4, 9, 7, 12}); },
      "key at position 3 is below the one before it");
}

TEST(KeySet, FromSortedKeysDuplicateThrows) {
  testing::expect_check_message(
      [] { (void)KeySet::from_sorted_keys({2, 2, 3}); },
      "key at position 1 repeats the one before it");
}

TEST(KeySet, SubsetOf) {
  const KeySet small = KeySet::from_keys({2, 4});
  const KeySet big = KeySet::from_keys({1, 2, 3, 4});
  EXPECT_TRUE(small.subset_of(big));
  EXPECT_FALSE(big.subset_of(small));
  EXPECT_TRUE(KeySet().subset_of(small));
}

}  // namespace
}  // namespace kylix
