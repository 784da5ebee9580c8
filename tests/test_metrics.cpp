#include "metrics/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace sperr::metrics {
namespace {

TEST(Quality, IdenticalFieldsHaveZeroError) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  const Quality q = compare(a.data(), a.data(), a.size());
  EXPECT_EQ(q.rmse, 0.0);
  EXPECT_EQ(q.max_pwe, 0.0);
  EXPECT_EQ(q.range, 4.0);
}

TEST(Quality, KnownError) {
  std::vector<double> a = {0, 0, 0, 0};
  std::vector<double> b = {1, -1, 1, -1};
  const Quality q = compare(a.data(), b.data(), a.size());
  EXPECT_DOUBLE_EQ(q.rmse, 1.0);
  EXPECT_DOUBLE_EQ(q.max_pwe, 1.0);
}

TEST(Quality, NanReconstructionFailsAnyBound) {
  // A NaN anywhere in the reconstruction, even before a finite error, makes
  // max_pwe NaN, so `max_pwe <= t` fails whatever t is.
  const double nan = std::nan("");
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {1, nan, 3.5, 4};
  const Quality q = compare(a.data(), b.data(), a.size());
  EXPECT_TRUE(std::isnan(q.max_pwe));
  EXPECT_FALSE(q.max_pwe <= 1e300);

  std::vector<float> af(a.begin(), a.end()), bf(a.size(), std::nanf(""));
  EXPECT_TRUE(std::isnan(compare(af.data(), bf.data(), af.size()).max_pwe));
}

TEST(Quality, PsnrUsesRangeAsPeak) {
  std::vector<double> a = {0, 100};
  std::vector<double> b = {1, 100};  // rmse = 1/sqrt(2)
  const Quality q = compare(a.data(), b.data(), a.size());
  const double expected = 20.0 * std::log10(100.0 / (1.0 / std::sqrt(2.0)));
  EXPECT_NEAR(q.psnr, expected, 1e-9);
}

TEST(Quality, FloatOverloadMatchesDouble) {
  Rng rng(1);
  std::vector<double> a(1000), b(1000);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.uniform(-1, 1);
    b[i] = a[i] + rng.uniform(-0.01, 0.01);
  }
  std::vector<float> af(a.begin(), a.end()), bf(b.begin(), b.end());
  const Quality qd = compare(a.data(), b.data(), a.size());
  const Quality qf = compare(af.data(), bf.data(), af.size());
  EXPECT_NEAR(qd.rmse, qf.rmse, 1e-6);
}

TEST(AccuracyGain, DefinitionMatchesEquationTwo) {
  // gain = log2(sigma / E) - R  (paper Eq. 2)
  EXPECT_DOUBLE_EQ(accuracy_gain(8.0, 1.0, 2.0), 1.0);   // log2(8) - 2
  EXPECT_DOUBLE_EQ(accuracy_gain(1.0, 0.25, 0.0), 2.0);  // log2(4)
}

TEST(AccuracyGain, RelatesToSnrAsInPaper) {
  // gain ≈ SNR/6.02 - R (paper §V-B).
  const double sigma = 5.0, rmse = 0.01, bpp = 3.0;
  const double gain = accuracy_gain(sigma, rmse, bpp);
  const double snr = snr_db(sigma, rmse);
  EXPECT_NEAR(gain, snr / (20.0 * std::log10(2.0)) - bpp, 1e-9);
}

TEST(AccuracyGain, PerfectReconstructionIsFiniteAndLarge) {
  const double g = accuracy_gain(1.0, 0.0, 4.0);
  EXPECT_TRUE(std::isfinite(g));
  EXPECT_GT(g, 10.0);
}

TEST(AccuracyGain, HalvingErrorAtOneExtraBitIsNeutral) {
  // On the 6.02 dB/bit plateau, one more bit halves E: gain is unchanged.
  const double g1 = accuracy_gain(1.0, 0.1, 2.0);
  const double g2 = accuracy_gain(1.0, 0.05, 3.0);
  EXPECT_NEAR(g1, g2, 1e-12);
}

TEST(Ssim, IdenticalImagesScoreOne) {
  Rng rng(4);
  const Dims dims{64, 64, 1};
  std::vector<double> img(dims.total());
  for (auto& v : img) v = rng.uniform(0, 255);
  EXPECT_NEAR(mean_ssim(img.data(), img.data(), dims), 1.0, 1e-12);
}

TEST(Ssim, NoiseReducesScore) {
  Rng rng(5);
  const Dims dims{64, 64, 1};
  std::vector<double> a(dims.total()), b(dims.total());
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = 128.0 + 40.0 * std::sin(double(i) * 0.1);
    b[i] = a[i] + rng.gaussian() * 30.0;
  }
  const double s = mean_ssim(a.data(), b.data(), dims);
  EXPECT_LT(s, 0.9);
  EXPECT_GT(s, -1.0);
}

TEST(Ssim, SmallErrorScoresHigherThanLargeError) {
  Rng rng(6);
  const Dims dims{48, 48, 1};
  std::vector<double> a(dims.total()), small(dims.total()), large(dims.total());
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = 100.0 * std::cos(double(i % 48) * 0.2);
    small[i] = a[i] + rng.gaussian();
    large[i] = a[i] + rng.gaussian() * 25.0;
  }
  EXPECT_GT(mean_ssim(a.data(), small.data(), dims),
            mean_ssim(a.data(), large.data(), dims));
}

}  // namespace
}  // namespace sperr::metrics
