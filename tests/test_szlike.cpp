#include "baselines/szlike/compressor.h"
#include "baselines/szlike/quant_bins.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/checksum.h"
#include "common/rng.h"
#include "data/synthetic.h"

namespace sperr::szlike {
namespace {

double max_abs_err(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0;
  for (size_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

// --- quantization-bin codec ---------------------------------------------

TEST(QuantBins, EmptyRoundTrip) {
  const auto stream = encode_quant_bins({});
  std::vector<int32_t> bins;
  ASSERT_EQ(decode_quant_bins(stream.data(), stream.size(), bins), Status::ok);
  EXPECT_TRUE(bins.empty());
}

TEST(QuantBins, MostlyZeroRoundTrip) {
  Rng rng(1);
  std::vector<int32_t> bins(100000, 0);
  for (auto& b : bins)
    if (rng.below(50) == 0) b = int32_t(rng.below(9)) - 4;
  QuantBinStats stats;
  const auto stream = encode_quant_bins(bins, &stats);
  // Dense zeros must cost well under 1 bit/point after Huffman+lossless.
  EXPECT_LT(double(stream.size()) * 8 / double(bins.size()), 1.0);
  std::vector<int32_t> out;
  ASSERT_EQ(decode_quant_bins(stream.data(), stream.size(), out), Status::ok);
  EXPECT_EQ(out, bins);
}

TEST(QuantBins, EscapesForHugeBins) {
  std::vector<int32_t> bins = {0, 5, kCapacity + 7, -kCapacity - 3, INT32_MAX,
                               INT32_MIN, 0};
  QuantBinStats stats;
  const auto stream = encode_quant_bins(bins, &stats);
  EXPECT_EQ(stats.num_escapes, 4u);
  std::vector<int32_t> out;
  ASSERT_EQ(decode_quant_bins(stream.data(), stream.size(), out), Status::ok);
  EXPECT_EQ(out, bins);
}

TEST(QuantBins, FullRangeRandomRoundTrip) {
  Rng rng(2);
  std::vector<int32_t> bins(20000);
  for (auto& b : bins) b = int32_t(rng.next());
  const auto stream = encode_quant_bins(bins);
  std::vector<int32_t> out;
  ASSERT_EQ(decode_quant_bins(stream.data(), stream.size(), out), Status::ok);
  EXPECT_EQ(out, bins);
}

TEST(QuantBins, WideAlphabetNeedsLongCodes) {
  // Regression for a real bug: > 2^15 distinct symbols cannot form a valid
  // prefix code under a 15-bit length limit; the codec must use the wider
  // limit and still round-trip (this is the tight-tolerance SZ regime).
  std::vector<int32_t> bins;
  for (int32_t v = -20000; v < 20000; ++v) bins.push_back(v);  // 40k distinct
  const auto stream = encode_quant_bins(bins);
  std::vector<int32_t> out;
  ASSERT_EQ(decode_quant_bins(stream.data(), stream.size(), out), Status::ok);
  EXPECT_EQ(out, bins);
}

TEST(QuantBins, SkewedWideAlphabet) {
  // Heavy zero mass plus a wide tail: the exact shape MGARD/SZ produce at
  // moderate tolerances.
  Rng rng(77);
  std::vector<int32_t> bins(60000, 0);
  for (auto& b : bins) {
    const double u = rng.uniform();
    if (u > 0.9) b = int32_t(rng.below(30000)) - 15000;
  }
  const auto stream = encode_quant_bins(bins);
  std::vector<int32_t> out;
  ASSERT_EQ(decode_quant_bins(stream.data(), stream.size(), out), Status::ok);
  EXPECT_EQ(out, bins);
}

TEST(QuantBins, GarbageRejected) {
  std::vector<uint8_t> garbage = {1, 2, 3};
  std::vector<int32_t> bins;
  EXPECT_NE(decode_quant_bins(garbage.data(), garbage.size(), bins), Status::ok);
}

TEST(QuantBins, StreamBytesArePinned) {
  // Pins the quant-bin stream (Huffman codes up to 27 bits plus 32-bit
  // escapes, then the lossless pass) and a whole SZ-like stream.
  auto hash = [](const std::vector<uint8_t>& v) { return xxhash64(v.data(), v.size()); };
  Rng rng(91);
  std::vector<int32_t> bins(30000, 0);
  for (auto& b : bins) {
    const double u = rng.uniform();
    if (u > 0.99) b = int32_t(rng.next());                       // escape
    else if (u > 0.7) b = int32_t(rng.below(40000)) - 20000;     // wide tail
    else if (u > 0.4) b = int32_t(rng.below(9)) - 4;
  }
  QuantBinStats stats;
  const auto stream = encode_quant_bins(bins, &stats);
  EXPECT_GT(stats.num_escapes, 0u);
  EXPECT_EQ(stream.size(), 39148u);
  EXPECT_EQ(hash(stream), 0xb6f13e70da672b18ull);

  const Dims dims{33, 20, 9};
  const auto field = data::s3d_temperature(dims);
  const auto sz = compress(field.data(), dims, 0.05);
  EXPECT_EQ(sz.size(), 6913u);
  EXPECT_EQ(hash(sz), 0xb4ba3da1bbe0da78ull);
}

// --- full compressor ------------------------------------------------------

class SzShapes : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(SzShapes, ErrorBoundHolds) {
  const auto [x, y, z] = GetParam();
  const Dims dims{x, y, z};
  const auto field = data::make_field("miranda_density", dims, x + y + z);
  const double eb = 1e-3;
  const auto stream = compress(field.data(), dims, eb);
  std::vector<double> out;
  Dims od;
  ASSERT_EQ(decompress(stream.data(), stream.size(), out, od), Status::ok);
  EXPECT_EQ(od, dims);
  EXPECT_LE(max_abs_err(field, out), eb);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SzShapes,
    ::testing::Values(std::make_tuple(64, 64, 64), std::make_tuple(65, 33, 17),
                      std::make_tuple(100, 1, 1), std::make_tuple(48, 48, 1),
                      std::make_tuple(1, 1, 1), std::make_tuple(5, 7, 3)));

TEST(SzLike, BoundHoldsOnWhiteNoise) {
  Rng rng(3);
  const Dims dims{32, 32, 8};
  std::vector<double> field(dims.total());
  for (auto& v : field) v = rng.gaussian() * 100.0;
  const double eb = 0.5;
  SzStats stats;
  const auto stream = compress(field.data(), dims, eb, &stats);
  std::vector<double> out;
  Dims od;
  ASSERT_EQ(decompress(stream.data(), stream.size(), out, od), Status::ok);
  EXPECT_LE(max_abs_err(field, out), eb);
}

TEST(SzLike, SmoothFieldCompressesWell) {
  const Dims dims{64, 64, 64};
  const auto field = data::miranda_pressure(dims);
  const double range = 814672.0;  // approx; just for scale
  const auto stream = compress(field.data(), dims, range * 1e-4);
  const double bpp = double(stream.size()) * 8 / double(dims.total());
  EXPECT_LT(bpp, 12.0);  // far below the 64-bit input
  std::vector<double> out;
  Dims od;
  ASSERT_EQ(decompress(stream.data(), stream.size(), out, od), Status::ok);
}

TEST(SzLike, TighterBoundCostsMoreBits) {
  const Dims dims{48, 48, 48};
  const auto field = data::s3d_temperature(dims);
  size_t prev = 0;
  for (double eb : {10.0, 1.0, 0.1, 0.01}) {
    const auto stream = compress(field.data(), dims, eb);
    EXPECT_GT(stream.size(), prev);
    prev = stream.size();
    std::vector<double> out;
    Dims od;
    ASSERT_EQ(decompress(stream.data(), stream.size(), out, od), Status::ok);
    EXPECT_LE(max_abs_err(field, out), eb);
  }
}

TEST(SzLike, InvalidBoundThrows) {
  std::vector<double> field(8, 1.0);
  EXPECT_THROW((void)compress(field.data(), Dims{8, 1, 1}, 0.0),
               std::invalid_argument);
}

TEST(SzLike, GarbageRejected) {
  std::vector<uint8_t> garbage(64, 0xab);
  std::vector<double> out;
  Dims od;
  EXPECT_NE(decompress(garbage.data(), garbage.size(), out, od), Status::ok);
}

}  // namespace
}  // namespace sperr::szlike
