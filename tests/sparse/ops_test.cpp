#include "sparse/ops.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "common/rng.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

TEST(ScatterCombine, SumAccumulatesThroughMap) {
  std::vector<float> acc = {0, 0, 0};
  const std::vector<float> values = {1, 2, 3, 4};
  const PosMap map = {0, 2, 0, 1};
  scatter_combine<float, OpSum>(std::span<float>(acc),
                                std::span<const float>(values), map);
  EXPECT_EQ(acc, (std::vector<float>{4, 4, 2}));
}

TEST(ScatterCombine, MinTakesMinimum) {
  std::vector<std::uint32_t> acc = {100, 100};
  const std::vector<std::uint32_t> values = {5, 9, 3};
  const PosMap map = {0, 1, 0};
  scatter_combine<std::uint32_t, OpMin>(std::span<std::uint32_t>(acc),
                                        std::span<const std::uint32_t>(values),
                                        map);
  EXPECT_EQ(acc, (std::vector<std::uint32_t>{3, 9}));
}

TEST(ScatterCombine, BitOrAccumulatesBits) {
  std::vector<std::uint64_t> acc = {0};
  const std::vector<std::uint64_t> values = {1, 4, 16};
  const PosMap map = {0, 0, 0};
  scatter_combine<std::uint64_t, OpBitOr>(
      std::span<std::uint64_t>(acc), std::span<const std::uint64_t>(values),
      map);
  EXPECT_EQ(acc[0], 21u);
}

TEST(ScatterCombine, SizeMismatchThrows) {
  std::vector<float> acc = {0};
  const std::vector<float> values = {1, 2};
  const PosMap map = {0};
  EXPECT_THROW((scatter_combine<float, OpSum>(
                   std::span<float>(acc), std::span<const float>(values),
                   map)),
               check_error);
}

TEST(Gather, PullsThroughMap) {
  const std::vector<float> values = {10, 20, 30};
  const PosMap map = {2, 0, 2, 1};
  EXPECT_EQ(gather(std::span<const float>(values), map),
            (std::vector<float>{30, 10, 30, 20}));
}

TEST(Gather, EmptyMapGivesEmpty) {
  const std::vector<float> values = {1};
  EXPECT_TRUE(gather(std::span<const float>(values), PosMap{}).empty());
}

TEST(OpIdentities, AreNeutral) {
  EXPECT_EQ(OpSum::identity<float>(), 0.0f);
  EXPECT_EQ(OpMin::identity<std::uint32_t>(),
            std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(OpBitOr::identity<std::uint64_t>(), 0u);
}

TEST(SparseVector, FromPairsCombinesDuplicates) {
  const std::vector<index_t> ids = {5, 2, 5, 2, 9};
  const std::vector<float> vals = {1, 2, 3, 4, 5};
  const auto v = SparseVector<float>::from_pairs(ids, vals);
  ASSERT_EQ(v.size(), 3u);
  const std::size_t p5 = v.keys.find(hash_index(5));
  const std::size_t p2 = v.keys.find(hash_index(2));
  const std::size_t p9 = v.keys.find(hash_index(9));
  EXPECT_EQ(v.values[p5], 4.0f);
  EXPECT_EQ(v.values[p2], 6.0f);
  EXPECT_EQ(v.values[p9], 5.0f);
}

TEST(SparseVector, FromPairsWithMinOp) {
  const std::vector<index_t> ids = {1, 1, 1};
  const std::vector<std::uint32_t> vals = {7, 3, 9};
  const auto v =
      SparseVector<std::uint32_t>::from_pairs<OpMin>(ids, vals, OpMin{});
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.values[0], 3u);
}

TEST(ReferenceReduce, MatchesBruteForceOnRandomWorkload) {
  const auto w = testing::random_workload<float>(6, 50, 0.3, 0.5, 11);
  std::vector<SparseVector<float>> contributions;
  for (std::size_t r = 0; r < w.out_sets.size(); ++r) {
    contributions.push_back(
        SparseVector<float>{w.out_sets[r], w.out_values[r]});
  }
  const ReferenceReduce<float> ref(contributions);
  const auto totals = testing::brute_force_totals<float>(w);
  EXPECT_EQ(ref.keys().size(), totals.size());
  for (const auto& [key, total] : totals) {
    EXPECT_EQ(ref.at(key), total);
  }
  // lookup() aligns with the request set.
  for (const KeySet& in : w.in_sets) {
    const std::vector<float> values = ref.lookup(in);
    ASSERT_EQ(values.size(), in.size());
    for (std::size_t p = 0; p < in.size(); ++p) {
      EXPECT_EQ(values[p], totals.at(in[p]));
    }
  }
}

TEST(ReferenceReduce, UnknownKeyThrows) {
  const std::vector<SparseVector<float>> contributions = {
      SparseVector<float>{KeySet::from_indices(std::vector<index_t>{1}),
                          {1.0f}}};
  const ReferenceReduce<float> ref(contributions);
  EXPECT_THROW((void)ref.at(hash_index(2)), check_error);
}

}  // namespace
}  // namespace kylix
