#include "wavelet/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "oracle/oracle.h"
#include "wavelet/cdf97.h"
#include "wavelet/dwt.h"

namespace sperr::wavelet {
namespace {

class KernelRoundTrip : public ::testing::TestWithParam<Kernel> {};

TEST_P(KernelRoundTrip, PerfectReconstructionEveryLengthUpTo48) {
  const Kernel k = GetParam();
  Rng rng(51);
  for (size_t n = 1; n <= 48; ++n) {
    std::vector<double> input(n);
    for (auto& v : input) v = rng.uniform(-10, 10);
    auto work = input;
    std::vector<double> scratch(n);
    line_analysis(k, work.data(), n, scratch.data());
    line_synthesis(k, work.data(), n, scratch.data());
    for (size_t i = 0; i < n; ++i)
      ASSERT_NEAR(work[i], input[i], 1e-10)
          << to_string(k) << " length " << n << " sample " << i;
  }
}

TEST_P(KernelRoundTrip, MultiDimRoundTrip) {
  const Kernel k = GetParam();
  const Dims dims{33, 17, 9};
  Rng rng(52);
  std::vector<double> input(dims.total());
  for (auto& v : input) v = rng.gaussian() * 50;
  auto work = input;
  forward_dwt(work.data(), dims, k);
  inverse_dwt(work.data(), dims, k);
  for (size_t i = 0; i < input.size(); ++i)
    ASSERT_NEAR(work[i], input[i], 1e-8) << to_string(k);
}

TEST_P(KernelRoundTrip, ConstantSignalHasNoDetail) {
  const Kernel k = GetParam();
  std::vector<double> line(64, 2.0), scratch(64);
  line_analysis(k, line.data(), 64, scratch.data());
  for (size_t i = approx_len(64); i < 64; ++i)
    EXPECT_NEAR(line[i], 0.0, 1e-10) << to_string(k);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelRoundTrip,
                         ::testing::Values(Kernel::cdf97, Kernel::cdf53,
                                           Kernel::haar));

TEST(KernelComparison, Cdf97CompactsSmoothSignalsBest) {
  // The §III-A design-choice test in miniature: on a smooth signal, the
  // fraction of energy in the top 10% of coefficients must rank
  // cdf97 >= cdf53 >= haar.
  const size_t n = 512;
  std::vector<double> signal(n);
  for (size_t i = 0; i < n; ++i)
    signal[i] = std::sin(0.05 * double(i)) + 0.3 * std::cos(0.11 * double(i));

  auto top_energy_fraction = [&](Kernel k) {
    auto work = signal;
    std::vector<double> scratch(n);
    // Apply three recursive passes on the approximation.
    size_t len = n;
    for (int level = 0; level < 3; ++level) {
      line_analysis(k, work.data(), len, scratch.data());
      len = approx_len(len);
    }
    std::vector<double> e(n);
    for (size_t i = 0; i < n; ++i) e[i] = work[i] * work[i];
    std::sort(e.begin(), e.end(), std::greater<>());
    const double total = std::accumulate(e.begin(), e.end(), 0.0);
    const double top = std::accumulate(e.begin(), e.begin() + n / 10, 0.0);
    return top / total;
  };

  const double f97 = top_energy_fraction(Kernel::cdf97);
  const double f53 = top_energy_fraction(Kernel::cdf53);
  const double fhaar = top_energy_fraction(Kernel::haar);
  EXPECT_GE(f97 + 1e-6, f53);
  EXPECT_GE(f53 + 1e-6, fhaar);
  EXPECT_GT(f97, 0.95);  // smooth signal: nearly everything in the top 10%
}

TEST(KernelComparison, HaarIsExactlyOrthonormal) {
  Rng rng(53);
  std::vector<double> input(256);
  for (auto& v : input) v = rng.gaussian();
  const double e_in =
      std::inner_product(input.begin(), input.end(), input.begin(), 0.0);
  std::vector<double> scratch(256);
  line_analysis(Kernel::haar, input.data(), 256, scratch.data());
  const double e_out =
      std::inner_product(input.begin(), input.end(), input.begin(), 0.0);
  EXPECT_NEAR(e_out / e_in, 1.0, 1e-12);
}

}  // namespace
}  // namespace sperr::wavelet
