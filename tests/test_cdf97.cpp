#include "wavelet/cdf97.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "oracle/oracle.h"

namespace sperr::wavelet {
namespace {

void expect_reconstruction(const std::vector<double>& input, double tol = 1e-10) {
  std::vector<double> work = input;
  std::vector<double> scratch(input.size());
  cdf97_analysis(work.data(), work.size(), scratch.data());
  cdf97_synthesis(work.data(), work.size(), scratch.data());
  for (size_t i = 0; i < input.size(); ++i)
    EXPECT_NEAR(work[i], input[i], tol) << "sample " << i << " of " << input.size();
}

TEST(Cdf97, PerfectReconstructionEveryLengthUpTo64) {
  Rng rng(21);
  for (size_t n = 1; n <= 64; ++n) {
    std::vector<double> input(n);
    for (auto& v : input) v = rng.uniform(-10.0, 10.0);
    expect_reconstruction(input);
  }
}

TEST(Cdf97, PerfectReconstructionLongSignal) {
  Rng rng(22);
  std::vector<double> input(4099);  // odd, prime-ish length
  for (auto& v : input) v = rng.gaussian() * 100.0;
  expect_reconstruction(input, 1e-8);
}

TEST(Cdf97, ConstantSignalHasNoDetail) {
  // A constant is perfectly represented by the low-pass branch: all detail
  // coefficients must vanish (the 9/7 high-pass filter kills constants).
  std::vector<double> input(64, 3.5);
  std::vector<double> scratch(64);
  cdf97_analysis(input.data(), input.size(), scratch.data());
  const size_t na = approx_len(64);
  // The published lifting constants are truncated decimals, so "zero"
  // detail carries ~1e-12 of numerical residue relative to the input scale.
  for (size_t i = na; i < 64; ++i) EXPECT_NEAR(input[i], 0.0, 1e-10);
}

TEST(Cdf97, LinearRampHasNoDetail) {
  // The CDF 9/7 wavelet has four vanishing moments; linear signals also
  // produce (near-)zero detail away from boundaries.
  std::vector<double> input(64);
  std::iota(input.begin(), input.end(), 0.0);
  std::vector<double> scratch(64);
  cdf97_analysis(input.data(), input.size(), scratch.data());
  const size_t na = approx_len(64);
  // Skip the two boundary-adjacent detail coefficients at each end.
  for (size_t i = na + 2; i < 62; ++i) EXPECT_NEAR(input[i], 0.0, 1e-9);
}

TEST(Cdf97, ApproxCoefficientsCarryTheMeanEnergy) {
  std::vector<double> input(128, 1.0);
  std::vector<double> scratch(128);
  cdf97_analysis(input.data(), input.size(), scratch.data());
  const size_t na = approx_len(128);
  for (size_t i = 0; i < na; ++i) EXPECT_GT(input[i], 0.5);
}

TEST(Cdf97, NearUnitNormEnergyPreservation) {
  // Biorthogonal 9/7 is only near-orthogonal: energy is preserved to within
  // a few percent, which is the property SPERR's error estimation relies on.
  Rng rng(23);
  std::vector<double> input(1024);
  for (auto& v : input) v = rng.gaussian();
  const double energy_in =
      std::inner_product(input.begin(), input.end(), input.begin(), 0.0);
  std::vector<double> scratch(1024);
  cdf97_analysis(input.data(), input.size(), scratch.data());
  const double energy_out =
      std::inner_product(input.begin(), input.end(), input.begin(), 0.0);
  EXPECT_NEAR(energy_out / energy_in, 1.0, 0.10);
}

TEST(Cdf97, ImpulseRoundTripsEveryPosition) {
  for (size_t pos = 0; pos < 32; ++pos) {
    std::vector<double> input(32, 0.0);
    input[pos] = 1.0;
    expect_reconstruction(input);
  }
}

TEST(Cdf97, TrivialLengthsAreNoOps) {
  std::vector<double> one = {7.0};
  std::vector<double> scratch(1);
  cdf97_analysis(one.data(), 1, scratch.data());
  EXPECT_EQ(one[0], 7.0);
  cdf97_synthesis(one.data(), 1, scratch.data());
  EXPECT_EQ(one[0], 7.0);
}

TEST(LevelPolicy, MatchesPaperFormula) {
  EXPECT_EQ(num_levels(1), 0u);
  EXPECT_EQ(num_levels(7), 0u);
  EXPECT_EQ(num_levels(8), 1u);    // log2(8)-2 = 1
  EXPECT_EQ(num_levels(15), 1u);   // floor(log2 15) = 3
  EXPECT_EQ(num_levels(16), 2u);
  EXPECT_EQ(num_levels(64), 4u);
  EXPECT_EQ(num_levels(256), 6u);  // hits the cap: min(6, 8-2)
  EXPECT_EQ(num_levels(4096), 6u); // capped at 6
}

}  // namespace
}  // namespace sperr::wavelet
