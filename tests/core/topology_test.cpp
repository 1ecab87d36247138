#include "core/topology.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include <algorithm>
#include <set>

namespace kylix {
namespace {

TEST(Topology, MachineCountIsDegreeProduct) {
  EXPECT_EQ(Topology({8, 4, 2}).num_machines(), 64u);
  EXPECT_EQ(Topology({16, 4}).num_machines(), 64u);
  EXPECT_EQ(Topology({3, 5}).num_machines(), 15u);
  EXPECT_EQ(Topology({}).num_machines(), 1u);
}

TEST(Topology, FactoriesProduceExpectedSchedules) {
  const Topology direct = Topology::direct(12);
  EXPECT_EQ(direct.num_layers(), 1);
  EXPECT_EQ(direct.degree(1), 12u);

  const Topology binary = Topology::binary(16);
  EXPECT_EQ(binary.num_layers(), 4);
  for (std::uint16_t layer = 1; layer <= 4; ++layer) {
    EXPECT_EQ(binary.degree(layer), 2u);
  }

  EXPECT_EQ(Topology::direct(1).num_layers(), 0);
  EXPECT_EQ(Topology::binary(1).num_layers(), 0);
  EXPECT_THROW(Topology::binary(12), check_error);
}

TEST(Topology, ToStringFormats) {
  EXPECT_EQ(Topology({8, 4, 2}).to_string(), "8 x 4 x 2");
  EXPECT_EQ(Topology({}).to_string(), "1");
}

TEST(Topology, DigitsAreMixedRadixCoordinates) {
  const Topology topo({4, 3, 2});  // strides 1, 4, 12
  const rank_t rank = 1 + 2 * 4 + 1 * 12;  // digits (1, 2, 1)
  EXPECT_EQ(topo.digit(1, rank), 1u);
  EXPECT_EQ(topo.digit(2, rank), 2u);
  EXPECT_EQ(topo.digit(3, rank), 1u);
}

TEST(Topology, GroupsContainSelfAtOwnDigitPosition) {
  const Topology topo({4, 3, 2});
  for (rank_t rank = 0; rank < topo.num_machines(); ++rank) {
    for (std::uint16_t layer = 1; layer <= topo.num_layers(); ++layer) {
      const std::vector<rank_t> group = topo.group(layer, rank);
      ASSERT_EQ(group.size(), topo.degree(layer));
      EXPECT_EQ(group[topo.digit(layer, rank)], rank);
      // Group members agree on all digits except this layer's.
      for (std::uint32_t q = 0; q < group.size(); ++q) {
        EXPECT_EQ(topo.digit(layer, group[q]), q);
        for (std::uint16_t other = 1; other <= topo.num_layers(); ++other) {
          if (other != layer) {
            EXPECT_EQ(topo.digit(other, group[q]),
                      topo.digit(other, rank));
          }
        }
      }
    }
  }
}

TEST(Topology, GroupsPartitionTheMachinesAtEveryLayer) {
  const Topology topo({3, 2, 4});
  for (std::uint16_t layer = 1; layer <= topo.num_layers(); ++layer) {
    std::set<rank_t> covered;
    for (rank_t rank = 0; rank < topo.num_machines(); ++rank) {
      const std::vector<rank_t> group = topo.group(layer, rank);
      // Every member sees the identical group.
      for (rank_t member : group) {
        EXPECT_EQ(topo.group(layer, member), group);
      }
      covered.insert(group.begin(), group.end());
    }
    EXPECT_EQ(covered.size(), topo.num_machines());
  }
}

TEST(Topology, KeyRangesNarrowByDigitDownTheLayers) {
  const Topology topo({4, 2});
  for (rank_t rank = 0; rank < topo.num_machines(); ++rank) {
    EXPECT_TRUE(topo.key_range(0, rank).is_full());
    const KeyRange l1 = topo.key_range(1, rank);
    EXPECT_EQ(l1, KeyRange::full().subrange(topo.digit(1, rank), 4));
    const KeyRange l2 = topo.key_range(2, rank);
    EXPECT_EQ(l2, l1.subrange(topo.digit(2, rank), 2));
  }
}

TEST(Topology, BottomRangesTileTheKeySpace) {
  // Every machine's bottom range is disjoint and together they cover all
  // keys — the property that gives every index a unique home.
  const Topology topo({3, 2, 2});
  std::vector<KeyRange> ranges;
  for (rank_t rank = 0; rank < topo.num_machines(); ++rank) {
    ranges.push_back(topo.key_range(topo.num_layers(), rank));
  }
  for (key_t probe :
       {key_t{0}, key_t{1} << 20, key_t{1} << 40, key_t{1} << 63,
        ~key_t{0}, key_t{0x123456789abcdef0}}) {
    int owners = 0;
    for (const KeyRange& range : ranges) {
      if (range.contains(probe)) ++owners;
    }
    EXPECT_EQ(owners, 1) << "key " << probe;
  }
}

TEST(Topology, RejectsInvalidArguments) {
  EXPECT_THROW(Topology({0, 4}), check_error);
  EXPECT_THROW((void)Topology({8, 4}).degree(0), check_error);
  EXPECT_THROW((void)Topology({8, 4}).degree(3), check_error);
  EXPECT_THROW((void)Topology({8, 4}).key_range(3, 0), check_error);
  EXPECT_THROW(Topology::direct(0), check_error);
}

TEST(Topology, DegreeOneLayersAreAllowed) {
  // Degenerate but legal: a degree-1 layer is a no-op round.
  const Topology topo({2, 1, 2});
  EXPECT_EQ(topo.num_machines(), 4u);
  EXPECT_EQ(topo.group(2, 3), (std::vector<rank_t>{3}));
}

}  // namespace
}  // namespace kylix
