#include "outlier/coder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <tuple>

#include "common/rng.h"

namespace sperr::outlier {
namespace {

std::vector<Outlier> random_outliers(uint64_t array_len, size_t count, double t,
                                     uint64_t seed, double max_factor = 100.0) {
  Rng rng(seed);
  std::map<uint64_t, double> unique;
  while (unique.size() < count) {
    const uint64_t pos = rng.below(array_len);
    // |corr| strictly greater than t (they would not be outliers otherwise).
    const double mag = t * (1.0 + rng.uniform() * max_factor);
    unique[pos] = rng.uniform() < 0.5 ? -mag : mag;
  }
  std::vector<Outlier> out;
  out.reserve(count);
  for (const auto& [pos, corr] : unique) out.push_back({pos, corr});
  return out;
}

/// decode() returns the points in coder order; the tests compare them by
/// position.
void sort_by_pos(std::vector<Outlier>& v) {
  std::sort(v.begin(), v.end(),
            [](const Outlier& a, const Outlier& b) { return a.pos < b.pos; });
}

void expect_bounded_roundtrip(const std::vector<Outlier>& outliers,
                              uint64_t array_len, double t) {
  const auto stream = encode(outliers, array_len, t);
  std::vector<Outlier> decoded;
  ASSERT_EQ(decode(stream.data(), stream.size(), array_len, decoded), Status::ok);
  ASSERT_EQ(decoded.size(), outliers.size());

  sort_by_pos(decoded);
  auto sorted = outliers;
  sort_by_pos(sorted);
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(decoded[i].pos, sorted[i].pos) << "outlier " << i;
    // The central guarantee (paper §IV-B): |corr_decoded - corr| <= t/2.
    EXPECT_LE(std::fabs(decoded[i].corr - sorted[i].corr), t / 2 + 1e-12)
        << "outlier " << i << " corr " << sorted[i].corr << " decoded "
        << decoded[i].corr;
    EXPECT_EQ(std::signbit(decoded[i].corr), std::signbit(sorted[i].corr));
  }
}

TEST(OutlierCoder, NoOutliersEmptyStream) {
  const auto stream = encode({}, 1000, 0.5);
  std::vector<Outlier> decoded = {{1, 2.0}};  // must be cleared
  ASSERT_EQ(decode(stream.data(), stream.size(), 1000, decoded), Status::ok);
  EXPECT_TRUE(decoded.empty());
}

TEST(OutlierCoder, SingleOutlier) {
  expect_bounded_roundtrip({{123, 7.7}}, 1000, 1.0);
}

TEST(OutlierCoder, OutlierAtArrayEnds) {
  expect_bounded_roundtrip({{0, -3.0}, {999, 3.0}}, 1000, 1.0);
}

TEST(OutlierCoder, ArrayLengthOne) {
  expect_bounded_roundtrip({{0, 42.0}}, 1, 1.0);
}

TEST(OutlierCoder, AdjacentOutliers) {
  expect_bounded_roundtrip({{500, 2.5}, {501, -2.5}, {502, 9.0}}, 1000, 1.0);
}

TEST(OutlierCoder, AllPositionsAreOutliers) {
  std::vector<Outlier> outliers;
  Rng rng(4);
  for (uint64_t i = 0; i < 64; ++i)
    outliers.push_back({i, (rng.uniform() < 0.5 ? -1.0 : 1.0) * (1.5 + rng.uniform())});
  expect_bounded_roundtrip(outliers, 64, 1.0);
}

class OutlierSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t, double>> {};

TEST_P(OutlierSweep, BoundedRoundTrip) {
  const auto [len, count, t] = GetParam();
  expect_bounded_roundtrip(random_outliers(len, count, t, len + count), len, t);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, OutlierSweep,
    ::testing::Values(std::make_tuple(uint64_t(100), size_t(5), 1.0),
                      std::make_tuple(uint64_t(1000), size_t(100), 0.5),
                      std::make_tuple(uint64_t(65536), size_t(1000), 1e-3),
                      std::make_tuple(uint64_t(1 << 20), size_t(5000), 1e-6),
                      std::make_tuple(uint64_t(999983), size_t(777), 2.5),  // prime length
                      std::make_tuple(uint64_t(4096), size_t(4096 / 2), 1e-2)));

TEST(OutlierCoder, TinyTolerancesStayBounded) {
  const double t = 3.64e-11;  // the paper's Fig. 2 setting
  expect_bounded_roundtrip(random_outliers(1 << 16, 500, t, 99), 1 << 16, t);
}

TEST(OutlierCoder, HugeCorrectionMagnitudeRange) {
  // Corrections spanning many bitplanes (10^6 x the tolerance).
  expect_bounded_roundtrip(random_outliers(10000, 100, 1e-3, 5, 1e6), 10000, 1e-3);
}

TEST(OutlierCoder, CostPerOutlierIsModest) {
  // The paper reports ~6-16 bits per outlier (Fig. 4). Verify our coder is
  // in that ballpark for a typical density (~1% outliers).
  const uint64_t len = 1 << 18;
  const auto outliers = random_outliers(len, len / 100, 1.0, 77, 3.0);
  EncodeStats stats;
  (void)encode(outliers, len, 1.0, &stats);
  const double bits_per_outlier =
      double(stats.payload_bits) / double(stats.num_outliers);
  EXPECT_GT(bits_per_outlier, 3.0);
  EXPECT_LT(bits_per_outlier, 24.0);
}

TEST(OutlierCoder, HugeSparseArrayStaysCheap) {
  // A few outliers in a (virtually) enormous array: the range-splitting
  // depth is log2(N) ~ 40, but cost must stay tens of bits per outlier, and
  // encoding must complete instantly (sets with no outliers are never
  // subdivided).
  const uint64_t len = uint64_t(1) << 40;
  std::vector<Outlier> outliers = {
      {0, 5.0}, {len / 3, -2.0}, {len - 1, 9.9}};
  EncodeStats stats;
  const auto stream = encode(outliers, len, 1.0, &stats);
  // ~log2(N)=40 split bits per outlier plus sibling re-tests per plane —
  // still a few hundred bits per outlier, not millions of set tests.
  EXPECT_LT(stats.payload_bits, 2000u);
  std::vector<Outlier> decoded;
  ASSERT_EQ(decode(stream.data(), stream.size(), len, decoded), Status::ok);
  ASSERT_EQ(decoded.size(), 3u);
  sort_by_pos(decoded);
  EXPECT_EQ(decoded[0].pos, 0u);
  EXPECT_EQ(decoded[1].pos, len / 3);
  EXPECT_EQ(decoded[2].pos, len - 1);
}

TEST(OutlierCoder, CorrectionsJustAboveToleranceBoundary) {
  // |corr| barely above t: the coder must still classify them significant
  // at the final threshold and bound them by t/2.
  const double t = 0.125;
  std::vector<Outlier> outliers;
  for (uint64_t i = 0; i < 32; ++i)
    outliers.push_back({i * 31, (i % 2 ? 1.0 : -1.0) * t * (1.0 + 1e-12 + 1e-3 * double(i))});
  expect_bounded_roundtrip(outliers, 1024, t);
}

TEST(OutlierCoder, StreamIsSelfContained) {
  const auto outliers = random_outliers(5000, 50, 0.25, 8);
  const auto stream = encode(outliers, 5000, 0.25);
  // Decoding requires only the stream and the array length.
  std::vector<Outlier> decoded;
  ASSERT_EQ(decode(stream.data(), stream.size(), 5000, decoded), Status::ok);
  EXPECT_EQ(decoded.size(), outliers.size());
}

/// FNV-1a over 64-bit words, little-endian bytes.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= uint8_t(v >> (8 * i));
      h *= 0x100000001b3ull;
    }
  }
};

TEST(OutlierCoder, EveryPrefixDecodesAsPinned) {
  // 10k outliers in a 1M array, corrections up to 41 t: planes 5 .. 0. The
  // goldens pin full streams only; this pins what every byte prefix decodes
  // to, and cut streams (the header's bit count set to the prefix, as a
  // budget would) through the truncated-decode paths: at every 97th payload
  // byte and at each of the last 128, which end inside the last plane.
  const uint64_t len = uint64_t(1) << 20;
  const double t = 0.25;
  const auto stream = encode(random_outliers(len, 10000, t, 30, 40.0), len, t);
  Fnv bytes;
  for (const uint8_t b : stream) bytes.add(b);

  constexpr size_t kHeader = 22, kNbitsAt = 14;
  uint64_t nbits = 0;
  for (size_t i = 0; i < 8; ++i) nbits |= uint64_t(stream[kNbitsAt + i]) << (8 * i);
  const size_t payload = stream.size() - kHeader;
  ASSERT_GT(payload, 128u);

  Fnv decoded;
  std::vector<Outlier> out;
  auto add = [&](Status st) {
    decoded.add(uint64_t(st));
    if (st != Status::ok) return;
    sort_by_pos(out);
    decoded.add(out.size());
    for (const Outlier& o : out) {
      decoded.add(o.pos);
      decoded.add(std::bit_cast<uint64_t>(o.corr));
    }
  };
  for (size_t k = 0; k <= stream.size(); ++k) add(decode(stream.data(), k, len, out));
  std::vector<size_t> cuts;
  for (size_t k = 0; k < payload; k += 97) cuts.push_back(k);
  for (size_t k = payload - 128; k <= payload; ++k) cuts.push_back(k);
  for (const size_t k : cuts) {
    std::vector<uint8_t> cut(stream.begin(), stream.begin() + std::ptrdiff_t(kHeader + k));
    const uint64_t nb = std::min<uint64_t>(nbits, 8 * k);
    for (size_t i = 0; i < 8; ++i) cut[kNbitsAt + i] = uint8_t(nb >> (8 * i));
    add(decode(cut.data(), cut.size(), len, out));
  }
  EXPECT_EQ(bytes.h, 0x9c28bdaf453a6010ull) << std::hex << bytes.h;
  EXPECT_EQ(decoded.h, 0x9c9c77b60d363d16ull) << std::hex << decoded.h;
}

TEST(OutlierCoder, GarbageRejected) {
  std::vector<uint8_t> garbage = {0, 1, 2, 3};
  std::vector<Outlier> decoded;
  EXPECT_NE(decode(garbage.data(), garbage.size(), 100, decoded), Status::ok);
}

}  // namespace
}  // namespace sperr::outlier
