#include "speck/decoder.h"
#include "speck/encoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "speck/common.h"

namespace sperr::speck {
namespace {

std::vector<double> random_coeffs(Dims dims, uint64_t seed, double scale = 100.0) {
  Rng rng(seed);
  std::vector<double> c(dims.total());
  for (auto& v : c) {
    // Heavy-tailed like real wavelet coefficients: mostly small, few large.
    const double u = rng.uniform();
    v = rng.gaussian() * scale * (u < 0.05 ? 10.0 : (u < 0.3 ? 1.0 : 0.01));
  }
  return c;
}

void expect_quantized_roundtrip(Dims dims, double q, uint64_t seed) {
  const auto coeffs = random_coeffs(dims, seed);
  const auto stream = encode(coeffs.data(), dims, q);
  std::vector<double> recon(dims.total());
  ASSERT_EQ(decode(stream.data(), stream.size(), dims, recon.data()), Status::ok);
  for (size_t i = 0; i < coeffs.size(); ++i) {
    if (std::fabs(coeffs[i]) <= q) {
      // Dead zone reconstructs to zero with error at most q.
      EXPECT_EQ(recon[i], 0.0) << "dead-zone coefficient " << i;
      EXPECT_LE(std::fabs(coeffs[i] - recon[i]), q);
    } else {
      // Mid-riser quantization: error at most q/2 (plus fp slack).
      EXPECT_LE(std::fabs(coeffs[i] - recon[i]), q / 2 + 1e-12 * std::fabs(coeffs[i]))
          << "coefficient " << i;
      // Sign must be preserved.
      EXPECT_EQ(std::signbit(coeffs[i]), std::signbit(recon[i]));
    }
  }
}

class SpeckShapes : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(SpeckShapes, FullPrecisionRoundTripWithinQuantError) {
  const auto [x, y, z] = GetParam();
  expect_quantized_roundtrip(Dims{x, y, z}, 0.5, 1 + x + 31 * y + 97 * z);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpeckShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(7, 1, 1),
                      std::make_tuple(64, 1, 1), std::make_tuple(16, 16, 1),
                      std::make_tuple(33, 17, 1), std::make_tuple(8, 8, 8),
                      std::make_tuple(16, 16, 16), std::make_tuple(13, 9, 5),
                      std::make_tuple(32, 8, 2)));

class SpeckSteps : public ::testing::TestWithParam<double> {};

TEST_P(SpeckSteps, ArbitraryQuantizationStepsHonoured) {
  // The paper relaxes q from powers of two to arbitrary reals (§III-C).
  expect_quantized_roundtrip(Dims{16, 16, 4}, GetParam(), 99);
}

INSTANTIATE_TEST_SUITE_P(Steps, SpeckSteps,
                         ::testing::Values(0.001, 0.037, 0.5, 1.0, 1.3, 2.0,
                                           3.14159, 10.0, 127.3));

TEST(Speck, AllZeroInputProducesTinyStream) {
  const Dims dims{32, 32, 32};
  std::vector<double> zeros(dims.total(), 0.0);
  const auto stream = encode(zeros.data(), dims, 0.1);
  EXPECT_LE(stream.size(), Header::kBytes + 2);
  std::vector<double> recon(dims.total(), 1.0);
  ASSERT_EQ(decode(stream.data(), stream.size(), dims, recon.data()), Status::ok);
  for (double v : recon) EXPECT_EQ(v, 0.0);
}

TEST(Speck, DeadZoneOnlyInputProducesEmptyPayload) {
  const Dims dims{16, 16, 1};
  std::vector<double> small(dims.total(), 0.4);  // |c| <= q
  const auto stream = encode(small.data(), dims, 0.5);
  EXPECT_LE(stream.size(), Header::kBytes + 2);
}

TEST(Speck, SingleLargeCoefficientLocatedExactly) {
  const Dims dims{32, 32, 1};
  std::vector<double> c(dims.total(), 0.0);
  c[dims.index(17, 23, 0)] = -321.5;
  const auto stream = encode(c.data(), dims, 0.25);
  std::vector<double> recon(dims.total());
  ASSERT_EQ(decode(stream.data(), stream.size(), dims, recon.data()), Status::ok);
  for (size_t i = 0; i < c.size(); ++i) {
    if (i == dims.index(17, 23, 0)) {
      EXPECT_NEAR(recon[i], -321.5, 0.125);
    } else {
      EXPECT_EQ(recon[i], 0.0);
    }
  }
}

TEST(Speck, EmbeddedPrefixesDecodeWithMonotoneError) {
  // Any prefix of the stream must decode, with error non-increasing as the
  // prefix grows (the embedded property, paper §VII).
  const Dims dims{32, 32, 1};
  const auto coeffs = random_coeffs(dims, 7);
  const auto stream = encode(coeffs.data(), dims, 0.01);

  double prev_rmse = 1e300;
  for (double frac : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    const size_t nbytes =
        Header::kBytes + size_t(double(stream.size() - Header::kBytes) * frac);
    std::vector<double> recon(dims.total());
    ASSERT_EQ(decode(stream.data(), nbytes, dims, recon.data()), Status::ok);
    double sq = 0;
    for (size_t i = 0; i < coeffs.size(); ++i) {
      const double e = coeffs[i] - recon[i];
      sq += e * e;
    }
    const double rmse = std::sqrt(sq / double(coeffs.size()));
    EXPECT_LE(rmse, prev_rmse * 1.0001) << "prefix fraction " << frac;
    prev_rmse = rmse;
  }
}

TEST(Speck, SparseInputCostsUnderAFifthOfDenseBitplaneCoding) {
  // What set partitioning buys (§III-B): a dense bitplane coder with the
  // same quantization spends at least one bit per coefficient on every
  // coded plane, n * planes / 8 bytes in all. On sparse coefficients (a few
  // significant values in a sea of zeros) SPECK must stay under a fifth of
  // that.
  Rng rng(62);
  const Dims dims{32, 32, 32};
  const double q = 0.5;
  std::vector<double> coeffs(dims.total(), 0.0);
  for (int i = 0; i < 200; ++i)
    coeffs[rng.below(coeffs.size())] = rng.gaussian() * 100.0;

  double max_m = 0.0;
  for (const double c : coeffs) max_m = std::max(max_m, std::fabs(c) / q);
  int planes = 1;  // planes 2^n_max .. 2^0, n_max the largest n with 2^n < max_m
  while (std::ldexp(1.0, planes) < max_m) ++planes;
  const size_t dense_bytes = dims.total() * size_t(planes) / 8;

  const auto stream = encode(coeffs.data(), dims, q);
  EXPECT_LT(stream.size() * 5, dense_bytes);
}

TEST(Speck, BudgetedEncodeStopsAtBudget) {
  const Dims dims{64, 64, 1};
  const auto coeffs = random_coeffs(dims, 8);
  const size_t budget_bits = 4096;
  EncodeStats stats;
  const auto stream = encode(coeffs.data(), dims, 0.001, budget_bits, &stats);
  EXPECT_LE(stats.payload_bits, budget_bits + 1);
  EXPECT_LE(stream.size(), Header::kBytes + budget_bits / 8 + 2);
  std::vector<double> recon(dims.total());
  EXPECT_EQ(decode(stream.data(), stream.size(), dims, recon.data()), Status::ok);
}

TEST(Speck, BudgetedStreamMatchesUnbudgetedPrefix) {
  // Size-bounded coding must be a literal truncation of the full stream:
  // the embedded property guarantees the first `budget` bits coincide.
  const Dims dims{32, 32, 2};
  const auto coeffs = random_coeffs(dims, 9);
  const auto full = encode(coeffs.data(), dims, 0.01);
  const size_t budget_bits = 2000;
  const auto cut = encode(coeffs.data(), dims, 0.01, budget_bits);
  ASSERT_LE(cut.size(), full.size());
  // Compare payload bytes (headers differ in their recorded bit counts).
  for (size_t i = Header::kBytes; i + 1 < cut.size(); ++i)
    ASSERT_EQ(cut[i], full[i]) << "payload byte " << i;
}

TEST(Speck, MoreBitsMeansFewerOutliersAgainstOriginal) {
  // Rate-distortion sanity: halving q (more planes) reduces max error.
  const Dims dims{32, 32, 1};
  const auto coeffs = random_coeffs(dims, 10);
  double prev_max = 1e300;
  for (double q : {4.0, 2.0, 1.0, 0.5, 0.25}) {
    const auto stream = encode(coeffs.data(), dims, q);
    std::vector<double> recon(dims.total());
    ASSERT_EQ(decode(stream.data(), stream.size(), dims, recon.data()), Status::ok);
    double max_err = 0;
    for (size_t i = 0; i < coeffs.size(); ++i)
      max_err = std::max(max_err, std::fabs(coeffs[i] - recon[i]));
    EXPECT_LE(max_err, prev_max + 1e-12);
    EXPECT_LE(max_err, q);
    prev_max = max_err;
  }
}

TEST(Speck, CorruptHeaderRejected) {
  std::vector<uint8_t> garbage = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> recon(8);
  EXPECT_EQ(decode(garbage.data(), garbage.size(), Dims{8, 1, 1}, recon.data()),
            Status::corrupt_stream);
}

TEST(Speck, EncoderReconMatchesDecoderExactly) {
  // The encoder's exported reconstruction must be bit-identical to what a
  // decoder of the full stream produces — SPERR's outlier location relies
  // on this to skip re-decoding its own stream.
  const Dims dims{24, 24, 24};
  const auto coeffs = random_coeffs(dims, 123);
  std::vector<double> enc_recon;
  const auto stream = encode(coeffs.data(), dims, 0.05, 0, nullptr, &enc_recon);
  std::vector<double> dec_recon(dims.total());
  ASSERT_EQ(decode(stream.data(), stream.size(), dims, dec_recon.data()),
            Status::ok);
  ASSERT_EQ(enc_recon.size(), dec_recon.size());
  for (size_t i = 0; i < enc_recon.size(); ++i)
    ASSERT_EQ(enc_recon[i], dec_recon[i]) << "coefficient " << i;
}

TEST(SpeckBox, SplitCoversParentExactly) {
  Box parent;
  parent.x = 3;
  parent.y = 5;
  parent.z = 0;
  parent.nx = 7;
  parent.ny = 4;
  parent.nz = 1;
  Box children[8];
  const int n = split_box(parent, children);
  EXPECT_EQ(n, 4);  // x and y split, z degenerate
  uint64_t total = 0;
  for (int i = 0; i < n; ++i) total += children[i].count();
  EXPECT_EQ(total, parent.count());
  // First child carries the ceil-half along each split axis.
  EXPECT_EQ(children[0].nx, 4u);
  EXPECT_EQ(children[0].ny, 2u);
}

}  // namespace
}  // namespace sperr::speck
