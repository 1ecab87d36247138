#include "powerlaw/design.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include <numeric>

namespace kylix {
namespace {

TEST(Divisors, DescendingAndComplete) {
  EXPECT_EQ(divisors_descending(64),
            (std::vector<std::uint32_t>{64, 32, 16, 8, 4, 2}));
  EXPECT_EQ(divisors_descending(12),
            (std::vector<std::uint32_t>{12, 6, 4, 3, 2}));
  EXPECT_EQ(divisors_descending(7), (std::vector<std::uint32_t>{7}));
  EXPECT_TRUE(divisors_descending(1).empty());
}

TEST(SmallestPrimeFactor, Basics) {
  EXPECT_EQ(smallest_prime_factor(2), 2u);
  EXPECT_EQ(smallest_prime_factor(9), 3u);
  EXPECT_EQ(smallest_prime_factor(35), 5u);
  EXPECT_EQ(smallest_prime_factor(97), 97u);
  EXPECT_THROW((void)smallest_prime_factor(1), check_error);
}

DesignInput base_input() {
  DesignInput input;
  input.num_features = 1 << 20;
  input.num_machines = 64;
  input.alpha = 1.1;
  input.partition_density = 0.21;
  input.bytes_per_element = 12;
  input.min_packet_bytes = 300e3;
  return input;
}

TEST(ChooseDegrees, ProductAlwaysEqualsMachineCount) {
  for (std::uint32_t m : {1u, 2u, 6u, 8u, 12u, 64u, 60u, 97u}) {
    DesignInput input = base_input();
    input.num_machines = m;
    const DesignResult result = choose_degrees(input);
    const std::uint64_t product = std::accumulate(
        result.degrees.begin(), result.degrees.end(), std::uint64_t{1},
        std::multiplies<>());
    EXPECT_EQ(product, m) << "m = " << m;
  }
}

TEST(ChooseDegrees, DegreesDecreaseDownThePowerLawNetwork) {
  // "For optimum performance, the butterfly degrees also decrease down the
  // layers" (abstract) — data shrinks, so later layers afford fewer peers.
  const DesignResult result = choose_degrees(base_input());
  ASSERT_GE(result.degrees.size(), 2u);
  for (std::size_t i = 1; i < result.degrees.size(); ++i) {
    EXPECT_LE(result.degrees[i], result.degrees[i - 1]);
  }
}

TEST(ChooseDegrees, ZeroFloorCollapsesToDirect) {
  // With no packet-size floor the greedy rule takes all of m at once:
  // direct all-to-all is optimal when latency is free.
  DesignInput input = base_input();
  input.min_packet_bytes = 0;
  const DesignResult result = choose_degrees(input);
  EXPECT_EQ(result.degrees, (std::vector<std::uint32_t>{64}));
}

TEST(ChooseDegrees, HugeFloorFallsBackToBinary) {
  // Packets can never reach the floor: every layer is latency-bound and the
  // fallback picks the smallest prime factor (binary butterfly for 2^k).
  DesignInput input = base_input();
  input.min_packet_bytes = 1e12;
  const DesignResult result = choose_degrees(input);
  EXPECT_EQ(result.degrees,
            (std::vector<std::uint32_t>{2, 2, 2, 2, 2, 2}));
  for (const DesignLayer& layer : result.layers) {
    EXPECT_TRUE(layer.latency_bound);
  }
}

TEST(ChooseDegrees, MessageSizesRespectTheFloorWhenPossible) {
  const DesignInput input = base_input();
  const DesignResult result = choose_degrees(input);
  for (const DesignLayer& layer : result.layers) {
    if (!layer.latency_bound) {
      EXPECT_GE(layer.message_bytes, input.min_packet_bytes * 0.999);
    }
  }
}

TEST(ChooseDegrees, DenserDataAffordsLargerTopDegree) {
  DesignInput sparse_in = base_input();
  sparse_in.partition_density = 0.01;
  DesignInput dense_in = base_input();
  dense_in.partition_density = 0.4;
  const DesignResult sparse_out = choose_degrees(sparse_in);
  const DesignResult dense_out = choose_degrees(dense_in);
  EXPECT_GE(dense_out.degrees[0], sparse_out.degrees[0]);
}

TEST(ChooseDegrees, SingleMachineNeedsNoLayers) {
  DesignInput input = base_input();
  input.num_machines = 1;
  EXPECT_TRUE(choose_degrees(input).degrees.empty());
}

TEST(ChooseDegrees, RejectsInvalidInput) {
  DesignInput input = base_input();
  input.num_machines = 0;
  EXPECT_THROW(choose_degrees(input), check_error);
  input = base_input();
  input.partition_density = 0;
  EXPECT_THROW(choose_degrees(input), check_error);
  input = base_input();
  input.bytes_per_element = 0;
  EXPECT_THROW(choose_degrees(input), check_error);
}

TEST(ChooseDegrees, ReportsPerLayerExpectations) {
  const DesignResult result = choose_degrees(base_input());
  ASSERT_EQ(result.layers.size(), result.degrees.size());
  EXPECT_GT(result.lambda0, 0.0);
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    EXPECT_EQ(result.layers[i].degree, result.degrees[i]);
    EXPECT_GT(result.layers[i].density, 0.0);
    EXPECT_GT(result.layers[i].message_bytes, 0.0);
    EXPECT_NEAR(result.layers[i].message_bytes * result.layers[i].degree,
                result.layers[i].node_bytes, 1e-6);
  }
  EXPECT_NE(result.to_string().find("degrees:"), std::string::npos);
}

}  // namespace
}  // namespace kylix
