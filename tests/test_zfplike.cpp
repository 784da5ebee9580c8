#include "baselines/zfplike/block_codec.h"
#include "baselines/zfplike/compressor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/checksum.h"
#include "common/rng.h"
#include "data/synthetic.h"

namespace sperr::zfplike {
namespace {

double max_abs_err(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0;
  for (size_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

// --- block codec -----------------------------------------------------------

void expect_block_roundtrip(const double* block, int dims, double tol) {
  BlockParams params;
  params.dims = dims;
  int e;
  (void)std::frexp(tol, &e);
  params.minexp = e;

  WordBitWriter bw;
  encode_block(bw, block, params);
  const auto& bytes = bw.finish();
  BitReader br(bytes.data(), bytes.size(), bw.bit_count());
  double out[64];
  decode_block(br, out, params);
  for (int i = 0; i < block_points(dims); ++i)
    EXPECT_LE(std::fabs(block[i] - out[i]), tol) << "value " << i;
}

TEST(ZfpBlock, ZeroBlockIsOneBit) {
  double block[64] = {};
  BlockParams params;
  params.dims = 3;
  WordBitWriter bw;
  encode_block(bw, block, params);
  EXPECT_EQ(bw.bit_count(), 1u);
  const auto& bytes = bw.finish();
  BitReader br(bytes.data(), bytes.size(), 1);
  double out[64];
  decode_block(br, out, params);
  for (double v : out) EXPECT_EQ(v, 0.0);
}

TEST(ZfpBlock, ConstantBlockWithinTolerance) {
  double block[64];
  std::fill(block, block + 64, 3.14159);
  expect_block_roundtrip(block, 3, 1e-9);
}

TEST(ZfpBlock, RandomBlocksAllDims) {
  Rng rng(5);
  for (int d : {1, 2, 3}) {
    for (int trial = 0; trial < 50; ++trial) {
      double block[64];
      const double scale = std::pow(10.0, double(trial % 9) - 4.0);
      for (int i = 0; i < block_points(d); ++i)
        block[i] = rng.gaussian() * scale;
      expect_block_roundtrip(block, d, scale * 1e-6);
    }
  }
}

TEST(ZfpBlock, MixedMagnitudeBlock) {
  // Block-floating-point stress: one huge value forces a large emax; small
  // values must still come back within tolerance.
  double block[64] = {};
  block[0] = 1e6;
  block[13] = 1e-3;
  block[63] = -42.0;
  expect_block_roundtrip(block, 3, 1e-4);
}

TEST(ZfpBlock, BudgetTruncationDegradesGracefully) {
  Rng rng(6);
  double block[64];
  for (auto& v : block) v = rng.gaussian();
  double prev_err = 1e300;
  for (size_t budget : {64u, 256u, 1024u, 4096u}) {
    BlockParams params;
    params.dims = 3;
    params.maxbits = budget;
    WordBitWriter bw;
    encode_block(bw, block, params);
    EXPECT_LE(bw.bit_count(), budget);
    const auto& bytes = bw.finish();
    BitReader br(bytes.data(), bytes.size(), bw.bit_count());
    double out[64];
    decode_block(br, out, params);
    double err = 0;
    for (int i = 0; i < 64; ++i) err = std::max(err, std::fabs(block[i] - out[i]));
    EXPECT_LE(err, prev_err + 1e-12);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-9);  // 4096 bits = 64 bits/value: near-lossless
}

// --- volume compressor -------------------------------------------------------

class ZfpShapes : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(ZfpShapes, AccuracyModeBoundHolds) {
  const auto [x, y, z] = GetParam();
  const Dims dims{x, y, z};
  const auto field = data::make_field("miranda_viscosity", dims, x * 3 + y);
  const double tol = 1e-6;
  const auto stream = compress_accuracy(field.data(), dims, tol);
  std::vector<double> out;
  Dims od;
  ASSERT_EQ(decompress(stream.data(), stream.size(), out, od), Status::ok);
  EXPECT_EQ(od, dims);
  EXPECT_LE(max_abs_err(field, out), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZfpShapes,
    ::testing::Values(std::make_tuple(32, 32, 32), std::make_tuple(33, 18, 7),
                      std::make_tuple(64, 48, 1), std::make_tuple(129, 1, 1),
                      std::make_tuple(4, 4, 4), std::make_tuple(3, 3, 3)));

TEST(ZfpLike, FixedRateHitsTheRate) {
  const Dims dims{64, 64, 64};
  const auto field = data::nyx_velocity_x(dims);
  for (double bpp : {1.0, 4.0, 8.0}) {
    const auto stream = compress_rate(field.data(), dims, bpp);
    const double achieved = double(stream.size()) * 8 / double(dims.total());
    EXPECT_NEAR(achieved, bpp, bpp * 0.05 + 0.2) << "bpp " << bpp;
    std::vector<double> out;
    Dims od;
    ASSERT_EQ(decompress(stream.data(), stream.size(), out, od), Status::ok);
  }
}

TEST(ZfpLike, FixedRateErrorDropsWithRate) {
  const Dims dims{48, 48, 48};
  const auto field = data::miranda_density(dims);
  double prev = 1e300;
  for (double bpp : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const auto stream = compress_rate(field.data(), dims, bpp);
    std::vector<double> out;
    Dims od;
    ASSERT_EQ(decompress(stream.data(), stream.size(), out, od), Status::ok);
    const double err = max_abs_err(field, out);
    EXPECT_LT(err, prev) << "bpp " << bpp;
    prev = err;
  }
}

TEST(ZfpLike, VizQualityToleranceCompressesWell) {
  const Dims dims{64, 64, 64};
  const auto field = data::miranda_pressure(dims);
  // ~1e-2 of range: visualization-grade quality. Accuracy mode is
  // conservative (guard bitplanes), so the rate sits well above the
  // information-theoretic floor but far below the 64-bit input.
  const auto stream = compress_accuracy(field.data(), dims, 8000.0);
  EXPECT_LT(double(stream.size()) * 8 / double(dims.total()), 10.0);
}

TEST(ZfpLike, GarbageRejected) {
  std::vector<uint8_t> garbage(64, 0x11);
  std::vector<double> out;
  Dims od;
  EXPECT_NE(decompress(garbage.data(), garbage.size(), out, od), Status::ok);
}

TEST(ZfpLike, OutputBytesArePinned) {
  // The lifting transform's integer arithmetic wraps modulo 2^64 with
  // arithmetic right shifts; these hashes pin the bytes that produces for
  // both modes, their decodes, and blocks decoded from random bits (where
  // the inverse lift's sums overflow).
  auto hash = [](const auto& v) {
    return xxhash64(v.data(), v.size() * sizeof(v[0]));
  };
  const Dims dims{20, 20, 10};
  const auto field = data::s3d_ch4(dims);
  const auto acc = compress_accuracy(field.data(), dims, 1e-4);
  const auto rate = compress_rate(field.data(), dims, 4.0);
  std::vector<double> acc_out, rate_out;
  Dims od;
  ASSERT_EQ(decompress(acc.data(), acc.size(), acc_out, od), Status::ok);
  ASSERT_EQ(decompress(rate.data(), rate.size(), rate_out, od), Status::ok);

  Rng rng(4242);
  std::vector<uint8_t> junk(4096);
  for (auto& b : junk) b = uint8_t(rng.next());
  BitReader br(junk.data(), junk.size());
  std::vector<double> blocks;
  for (int i = 0; i < 24; ++i) {
    BlockParams params;
    params.dims = 1 + i % 3;
    double out[64];
    decode_block(br, out, params);
    blocks.insert(blocks.end(), out, out + block_points(params.dims));
  }

  EXPECT_EQ(hash(acc), 0x2e333fcf9fda824eull);
  EXPECT_EQ(hash(rate), 0x3c1d67b9d009b16dull);
  EXPECT_EQ(hash(acc_out), 0x2aee193867d0c589ull);
  EXPECT_EQ(hash(rate_out), 0x9763c5ba32c88bd6ull);
  EXPECT_EQ(hash(blocks), 0xeb278c44a1b58027ull);
}

}  // namespace
}  // namespace sperr::zfplike
