#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"
#include "data/synthetic.h"
#include "sperr/sperr.h"

namespace sperr {
namespace {

double rmse_of(const std::vector<double>& a, const std::vector<double>& b) {
  double sq = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double e = a[i] - b[i];
    sq += e * e;
  }
  return std::sqrt(sq / double(a.size()));
}

std::vector<uint8_t> fixed_rate_blob(const std::vector<double>& field, Dims dims,
                                     double bpp, Dims chunk = {256, 256, 256}) {
  Config cfg;
  cfg.mode = Mode::fixed_rate;
  cfg.bpp = bpp;
  cfg.chunk_dims = chunk;
  return compress(field.data(), dims, cfg);
}

TEST(Truncate, LowerRateDecodesWithHigherError) {
  const Dims dims{64, 64, 32};
  const auto field = data::miranda_pressure(dims);
  const auto full = fixed_rate_blob(field, dims, 8.0);

  double prev_rmse = 0.0;
  for (const double bpp : {8.0, 4.0, 2.0, 1.0, 0.5}) {
    std::vector<uint8_t> cut;
    ASSERT_EQ(truncate_fixed_rate(full.data(), full.size(), bpp, cut), Status::ok);
    EXPECT_LE(double(cut.size()) * 8 / double(dims.total()), bpp * 1.1 + 0.5);
    std::vector<double> recon;
    Dims od;
    ASSERT_EQ(decompress(cut.data(), cut.size(), recon, od), Status::ok);
    EXPECT_EQ(od, dims);
    const double rmse = rmse_of(field, recon);
    EXPECT_GE(rmse, prev_rmse * 0.999) << "bpp " << bpp;
    prev_rmse = rmse;
  }
}

TEST(Truncate, MatchesDirectEncodingAtTheSameRate) {
  // The embedded property in action: truncating an 8-bpp archive to 2 bpp
  // must land on (essentially) the same reconstruction as compressing at
  // 2 bpp directly.
  const Dims dims{48, 48, 48};
  const auto field = data::nyx_velocity_x(dims);
  const auto full = fixed_rate_blob(field, dims, 8.0);
  std::vector<uint8_t> cut;
  ASSERT_EQ(truncate_fixed_rate(full.data(), full.size(), 2.0, cut), Status::ok);

  const auto direct = fixed_rate_blob(field, dims, 2.0);
  std::vector<double> recon_cut, recon_direct;
  Dims od;
  ASSERT_EQ(decompress(cut.data(), cut.size(), recon_cut, od), Status::ok);
  ASSERT_EQ(decompress(direct.data(), direct.size(), recon_direct, od), Status::ok);
  const double r1 = rmse_of(field, recon_cut);
  const double r2 = rmse_of(field, recon_direct);
  EXPECT_NEAR(r1, r2, 0.05 * std::max(r1, r2) + 1e-12);
}

TEST(Truncate, CutEqualsDirectEncodingByteForByte) {
  // A cut keeps the first nbits payload bits and zeroes the rest of the last
  // byte, exactly as the encoder does at that budget — so the cut container
  // is the direct one, also when a budget is not a whole number of bytes.
  const Dims dims{33, 17, 9};
  for (const auto& field : {data::miranda_pressure(dims), data::nyx_velocity_x(dims)}) {
    const auto full = fixed_rate_blob(field, dims, 8.0);
    for (const double bpp : {0.3, 1.0, 2.0, 3.3}) {
      std::vector<uint8_t> cut;
      ASSERT_EQ(truncate_fixed_rate(full.data(), full.size(), bpp, cut), Status::ok);
      EXPECT_EQ(cut, fixed_rate_blob(field, dims, bpp)) << "bpp " << bpp;
    }
  }
}

TEST(Truncate, MultiChunkContainersSupported) {
  const Dims dims{64, 64, 64};
  const auto field = data::miranda_density(dims);
  const auto full = fixed_rate_blob(field, dims, 6.0, Dims{32, 32, 32});
  std::vector<uint8_t> cut;
  ASSERT_EQ(truncate_fixed_rate(full.data(), full.size(), 1.5, cut), Status::ok);
  std::vector<double> recon;
  Dims od;
  ASSERT_EQ(decompress(cut.data(), cut.size(), recon, od), Status::ok);
  EXPECT_EQ(od, dims);
  EXPECT_LT(cut.size(), full.size() / 3);
}

TEST(Truncate, RateAboveStoredIsNoOpSizewise) {
  const Dims dims{32, 32, 32};
  const auto field = data::s3d_ch4(dims);
  const auto full = fixed_rate_blob(field, dims, 2.0);
  std::vector<uint8_t> cut;
  ASSERT_EQ(truncate_fixed_rate(full.data(), full.size(), 100.0, cut), Status::ok);
  std::vector<double> a, b;
  Dims od;
  ASSERT_EQ(decompress(cut.data(), cut.size(), a, od), Status::ok);
  ASSERT_EQ(decompress(full.data(), full.size(), b, od), Status::ok);
  EXPECT_EQ(a, b);
}

TEST(Truncate, PweContainersRejected) {
  const Dims dims{32, 32, 32};
  const auto field = data::s3d_temperature(dims);
  Config cfg;
  cfg.tolerance = 1.0;
  const auto blob = compress(field.data(), dims, cfg);
  std::vector<uint8_t> cut;
  EXPECT_EQ(truncate_fixed_rate(blob.data(), blob.size(), 1.0, cut),
            Status::invalid_argument);
}

TEST(Truncate, GarbageRejected) {
  std::vector<uint8_t> junk(64, 0x42);
  std::vector<uint8_t> cut;
  EXPECT_NE(truncate_fixed_rate(junk.data(), junk.size(), 1.0, cut), Status::ok);
}

TEST(EstimatedRmse, TracksActualReconstructionError) {
  // §III-A's premise: coefficient-domain L2 error ~ reconstruction L2
  // error. The encoder's estimate must land within a small factor of truth.
  const Dims dims{48, 48, 24};
  const auto field = data::miranda_viscosity(dims);
  for (const int idx : {10, 20, 30}) {
    Config cfg;
    cfg.mode = Mode::target_rmse;
    const FieldStats fs = compute_stats(field.data(), field.size());
    cfg.rmse = fs.stddev() * std::pow(10.0, -idx / 10.0);
    const auto blob = compress(field.data(), dims, cfg);
    std::vector<double> recon;
    Dims od;
    ASSERT_EQ(decompress(blob.data(), blob.size(), recon, od), Status::ok);
    const double actual = rmse_of(field, recon);
    // The target is an upper bound; actual must be within [target/8, target].
    EXPECT_LE(actual, cfg.rmse);
    EXPECT_GE(actual, cfg.rmse / 8.0);
  }
}

}  // namespace
}  // namespace sperr
