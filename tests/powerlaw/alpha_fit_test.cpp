#include "powerlaw/alpha_fit.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "powerlaw/zipf.hpp"

namespace kylix {
namespace {

TEST(FitAlphaMle, RecoversPlantedExponent) {
  // Draw degree-like samples from P(x) ∝ x^-alpha and recover alpha. The
  // CSN continuity-corrected MLE is accurate for x_min >= ~6 (Clauset et
  // al. 2009, §3.1), so the fit starts there.
  for (double alpha : {1.5, 2.0, 2.5}) {
    const ZipfSampler zipf(1000000, alpha);
    Rng rng(static_cast<std::uint64_t>(alpha * 100));
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 400000; ++i) samples.push_back(zipf(rng));
    const double fitted = fit_alpha_mle(samples, 6);
    EXPECT_NEAR(fitted, alpha, 0.1) << "alpha " << alpha;
  }
}

TEST(FitAlphaMle, XminFiltersTheHead) {
  const ZipfSampler zipf(100000, 2.0);
  Rng rng(9);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(zipf(rng));
  // Fitting from a higher x_min should still land near the exponent.
  EXPECT_NEAR(fit_alpha_mle(samples, 3), 2.0, 0.25);
}

TEST(FitAlphaMle, RejectsDegenerateInput) {
  const std::vector<std::uint64_t> one = {5};
  EXPECT_THROW((void)fit_alpha_mle(one, 1), check_error);
  const std::vector<std::uint64_t> below = {1, 1, 1};
  EXPECT_THROW((void)fit_alpha_mle(below, 10), check_error);
}

TEST(FitAlphaRankFrequency, RecoversExactPowerLaw) {
  // Noise-free rank-frequency table F = C r^-alpha.
  for (double alpha : {0.7, 1.0, 1.4}) {
    std::vector<std::uint64_t> freq;
    for (int r = 1; r <= 2000; ++r) {
      freq.push_back(static_cast<std::uint64_t>(
          1e9 * std::pow(static_cast<double>(r), -alpha)));
    }
    EXPECT_NEAR(fit_alpha_rank_frequency(freq), alpha, 0.02)
        << "alpha " << alpha;
  }
}

TEST(FitAlphaRankFrequency, IgnoresTrailingZeros) {
  std::vector<std::uint64_t> freq = {1000, 250, 111, 62, 0, 0, 0};
  EXPECT_NEAR(fit_alpha_rank_frequency(freq), 2.0, 0.05);
}

TEST(FitAlphaRankFrequency, RejectsUnsortedOrDegenerate) {
  const std::vector<std::uint64_t> unsorted = {10, 50, 5};
  EXPECT_THROW((void)fit_alpha_rank_frequency(unsorted), check_error);
  const std::vector<std::uint64_t> single = {42};
  EXPECT_THROW((void)fit_alpha_rank_frequency(single), check_error);
}

TEST(FitAlphaRankFrequency, MatchesZipfSamples) {
  const double alpha = 1.1;
  const ZipfSampler zipf(5000, alpha);
  Rng rng(13);
  std::vector<std::uint64_t> counts(5001, 0);
  for (int i = 0; i < 2000000; ++i) ++counts[zipf(rng)];
  std::sort(counts.begin(), counts.end(), std::greater<>());
  // Fit the head only (the sampled tail flattens from discreteness).
  counts.resize(200);
  EXPECT_NEAR(fit_alpha_rank_frequency(counts), alpha, 0.1);
}

}  // namespace
}  // namespace kylix
