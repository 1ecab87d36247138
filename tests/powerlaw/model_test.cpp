#include "powerlaw/model.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include <cmath>

#include "common/rng.hpp"

namespace kylix {
namespace {

TEST(PowerLawModel, DensityIsZeroAtZeroLambda) {
  const PowerLawModel model(1000, 1.1);
  EXPECT_EQ(model.density(0.0), 0.0);
  EXPECT_EQ(model.density(-1.0), 0.0);
}

TEST(PowerLawModel, DensityApproachesOneForHugeLambda) {
  const PowerLawModel model(1000, 1.1);
  EXPECT_GT(model.density(1e12), 0.99);
  EXPECT_LE(model.density(1e12), 1.0 + 1e-9);
}

TEST(PowerLawModel, DensityIsStrictlyIncreasingUntilSaturation) {
  const PowerLawModel model(10000, 0.9);
  double previous = 0;
  for (double lambda = 0.01; lambda < 1e6; lambda *= 3) {
    const double d = model.density(lambda);
    if (previous < 0.9999) {
      EXPECT_GT(d, previous);
    } else {
      EXPECT_GE(d, previous);  // saturated to 1 within double precision
    }
    previous = d;
  }
}

TEST(PowerLawModel, DensityMatchesDirectSummation) {
  // The integral-tail shortcut must agree with the exact O(n) sum.
  const std::uint64_t n = 20000;
  for (double alpha : {0.5, 1.0, 1.5}) {
    const PowerLawModel model(n, alpha);
    for (double lambda : {0.5, 10.0, 500.0}) {
      double exact = 0;
      for (std::uint64_t r = 1; r <= n; ++r) {
        exact += -std::expm1(-lambda *
                             std::pow(static_cast<double>(r), -alpha));
      }
      exact /= static_cast<double>(n);
      EXPECT_NEAR(model.density(lambda), exact, exact * 1e-4 + 1e-12)
          << "alpha " << alpha << " lambda " << lambda;
    }
  }
}

TEST(PowerLawModel, DensityMatchesMonteCarloPoissonDraws) {
  // Eq. 7 against an actual Poisson simulation of the partition process.
  const std::uint64_t n = 2000;
  const double alpha = 1.1;
  const double lambda = 50.0;
  const PowerLawModel model(n, alpha);
  Rng rng(23);
  constexpr int kTrials = 60;
  double mean_density = 0;
  for (int t = 0; t < kTrials; ++t) {
    std::uint64_t nonzero = 0;
    for (std::uint64_t r = 1; r <= n; ++r) {
      if (rng.poisson(lambda * std::pow(static_cast<double>(r), -alpha)) >
          0) {
        ++nonzero;
      }
    }
    mean_density += static_cast<double>(nonzero) / static_cast<double>(n);
  }
  mean_density /= kTrials;
  EXPECT_NEAR(model.density(lambda), mean_density, 0.01);
}

class LambdaInversionTest : public ::testing::TestWithParam<double> {};

TEST_P(LambdaInversionTest, RoundTripsThroughDensity) {
  const double target = GetParam();
  for (double alpha : {0.6, 1.0, 1.4}) {
    const PowerLawModel model(100000, alpha);
    const double lambda = model.lambda_for_density(target);
    EXPECT_NEAR(model.density(lambda), target, target * 1e-5 + 1e-9)
        << "alpha " << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, LambdaInversionTest,
                         ::testing::Values(0.001, 0.035, 0.21, 0.5, 0.9));

TEST(PowerLawModel, LambdaForDensityRejectsBadTargets) {
  const PowerLawModel model(100, 1.0);
  EXPECT_THROW((void)model.lambda_for_density(0.0), check_error);
  EXPECT_THROW((void)model.lambda_for_density(1.0), check_error);
  EXPECT_THROW((void)model.lambda_for_density(-0.5), check_error);
}

TEST(PowerLawModel, HarmonicMatchesDirectSum) {
  for (double alpha : {0.5, 1.0, 1.7}) {
    const std::uint64_t n = 50000;
    const PowerLawModel model(n, alpha);
    double exact = 0;
    for (std::uint64_t r = 1; r <= n; ++r) {
      exact += std::pow(static_cast<double>(r), -alpha);
    }
    EXPECT_NEAR(model.harmonic(), exact, exact * 1e-4);
  }
}

TEST(Proposition41, FanInAccumulatesDegreeProducts) {
  const PowerLawModel model(1 << 20, 1.1);
  const std::vector<std::uint32_t> degrees = {8, 4, 2};
  const auto stats = model.layer_stats(100.0, degrees);
  ASSERT_EQ(stats.size(), 4u);  // layers 1..3 plus the reduced bottom
  EXPECT_EQ(stats[0].fan_in, 1u);   // K_1 = d_0 = 1
  EXPECT_EQ(stats[1].fan_in, 8u);   // K_2 = d_1
  EXPECT_EQ(stats[2].fan_in, 32u);  // K_3 = d_1 d_2
  EXPECT_EQ(stats[3].fan_in, 64u);  // full reduction
}

TEST(Proposition41, DensityGrowsAndPerNodeDataShrinks) {
  // The Kylix shape: D_i increases with fan-in, but P_i = n D_i / K_i
  // decreases because collisions collapse duplicates.
  const PowerLawModel model(1 << 20, 1.1);
  const double lambda0 = model.lambda_for_density(0.21);
  const std::vector<std::uint32_t> degrees = {8, 4, 2};
  const auto stats = model.layer_stats(lambda0, degrees);
  for (std::size_t i = 1; i < stats.size(); ++i) {
    EXPECT_GT(stats[i].density, stats[i - 1].density);
    EXPECT_LT(stats[i].elements_per_node, stats[i - 1].elements_per_node);
  }
}

TEST(Proposition41, FirstLayerMatchesMeasuredInputs) {
  const PowerLawModel model(1 << 16, 0.9);
  const double lambda0 = model.lambda_for_density(0.035);
  const std::vector<std::uint32_t> degrees = {16, 4};
  const auto stats = model.layer_stats(lambda0, degrees);
  EXPECT_NEAR(stats[0].density, 0.035, 1e-6);
  EXPECT_NEAR(stats[0].elements_per_node, 0.035 * (1 << 16), 1.0);
}

TEST(Proposition41, EmptyDegreeListGivesJustLayerZero) {
  const PowerLawModel model(100, 1.0);
  const auto stats = model.layer_stats(1.0, {});
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].fan_in, 1u);
}

}  // namespace
}  // namespace kylix
