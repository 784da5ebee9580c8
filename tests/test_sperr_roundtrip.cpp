#include "sperr/sperr.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "common/rng.h"
#include "common/stats.h"
#include "data/synthetic.h"
#include "sperr/outofcore.h"

namespace sperr {
namespace {

double max_abs_err(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0;
  for (size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

TEST(SperrRoundTrip, PweGuaranteeOnSmoothField) {
  const Dims dims{48, 48, 48};
  const auto field = data::miranda_pressure(dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 10);

  Stats stats;
  const auto blob = compress(field.data(), dims, cfg, &stats);
  EXPECT_GT(stats.compressed_bytes, 0u);
  EXPECT_LT(stats.compressed_bytes, field.size() * sizeof(double));

  std::vector<double> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, out_dims), Status::ok);
  EXPECT_EQ(out_dims, dims);
  ASSERT_EQ(recon.size(), field.size());
  EXPECT_LE(max_abs_err(field, recon), cfg.tolerance);
}

TEST(SperrRoundTrip, PweGuaranteeWithChunking) {
  // Volume not divisible by the chunk size: exercises remainder chunks.
  const Dims dims{70, 50, 30};
  const auto field = data::s3d_temperature(dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 15);
  cfg.chunk_dims = Dims{32, 32, 32};

  Stats stats;
  const auto blob = compress(field.data(), dims, cfg, &stats);
  EXPECT_GT(stats.num_chunks, 1u);

  std::vector<double> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, out_dims), Status::ok);
  EXPECT_LE(max_abs_err(field, recon), cfg.tolerance);
}

TEST(SperrRoundTrip, DefaultChunkIs128Cubed) {
  EXPECT_EQ(Config{}.chunk_dims, (Dims{128, 128, 128}));
}

TEST(SperrRoundTrip, DefaultConfigBytesDoNotDependOnThreadCount) {
  // Two default chunks along x and z (make_chunks folds a remainder under
  // 64 into the last chunk, so an axis splits from 192 up): a 2 x 1 x 2
  // grid of unequal chunks. No default may tie the chunking to num_threads.
  const Dims dims{200, 72, 200};
  const auto field = data::miranda_pressure(dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 20);

  cfg.num_threads = 1;
  Stats stats;
  const auto serial = compress(field.data(), dims, cfg, &stats);
  EXPECT_EQ(stats.num_chunks, 4u);
  cfg.num_threads = 4;
  const auto parallel = compress(field.data(), dims, cfg);
  EXPECT_TRUE(serial == parallel) << "bytes changed with num_threads";

  std::vector<double> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(parallel.data(), parallel.size(), recon, out_dims), Status::ok);
  EXPECT_EQ(out_dims, dims);
  EXPECT_LE(max_abs_err(field, recon), cfg.tolerance);
}

TEST(SperrRoundTrip, TwoDimensionalSlice) {
  const Dims dims{128, 96, 1};
  const auto field = data::lighthouse_2d(dims);
  Config cfg;
  cfg.tolerance = 0.5;  // half a grey level

  const auto blob = compress(field.data(), dims, cfg);
  std::vector<double> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, out_dims), Status::ok);
  EXPECT_EQ(out_dims, dims);
  EXPECT_LE(max_abs_err(field, recon), cfg.tolerance);
}

TEST(SperrRoundTrip, OneDimensionalSignal) {
  const Dims dims{4096, 1, 1};
  Rng rng(3);
  std::vector<double> field(dims.total());
  double v = 0;
  for (auto& f : field) {
    v += rng.gaussian() * 0.1;  // random walk: smooth-ish
    f = v;
  }
  Config cfg;
  cfg.tolerance = 1e-3;
  const auto blob = compress(field.data(), dims, cfg);
  std::vector<double> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, out_dims), Status::ok);
  EXPECT_LE(max_abs_err(field, recon), cfg.tolerance);
}

TEST(SperrRoundTrip, FloatInputRoundTrips) {
  const Dims dims{32, 32, 32};
  const auto field64 = data::nyx_dark_matter_density(dims);
  std::vector<float> field32(field64.begin(), field64.end());

  Config cfg;
  cfg.tolerance = tolerance_from_idx(field32.data(), field32.size(), 10);
  const auto blob = compress(field32.data(), dims, cfg);

  std::vector<float> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, out_dims), Status::ok);
  ASSERT_EQ(recon.size(), field32.size());
  double max_err = 0;
  for (size_t i = 0; i < recon.size(); ++i)
    max_err = std::max(max_err, std::fabs(double(field32[i]) - double(recon[i])));
  EXPECT_LE(max_err, cfg.tolerance);
}

TEST(SperrRoundTrip, FloatBoundHoldsBelowFloatSpacing) {
  // At idx 24 the tolerance (~0.048) is below the float spacing of this
  // field's larger values (0.0625): rounding the decoded doubles to float
  // would carry values that were within t past it, unless the compressor
  // locates outliers against the float-rounded reconstruction.
  const Dims dims{64, 64, 64};
  const auto field64 = data::make_field("miranda_pressure", dims);
  const std::vector<float> field32(field64.begin(), field64.end());

  Config cfg;
  cfg.tolerance = tolerance_from_idx(field32.data(), field32.size(), 24);
  const auto blob = compress(field32.data(), dims, cfg);

  std::vector<float> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, out_dims), Status::ok);
  ASSERT_EQ(recon.size(), field32.size());
  size_t over = 0;
  for (size_t i = 0; i < recon.size(); ++i)
    over += std::fabs(double(field32[i]) - double(recon[i])) > cfg.tolerance;
  EXPECT_EQ(over, 0u) << "t = " << cfg.tolerance;

  // The same container decoded to doubles keeps the bound too.
  std::vector<double> recon64;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon64, out_dims), Status::ok);
  over = 0;
  for (size_t i = 0; i < recon64.size(); ++i)
    over += std::fabs(double(field32[i]) - recon64[i]) > cfg.tolerance;
  EXPECT_EQ(over, 0u) << "f64 decode, t = " << cfg.tolerance;
}

TEST(SperrRoundTrip, FixedRateModeHonoursBudget) {
  const Dims dims{64, 64, 64};
  const auto field = data::miranda_density(dims);
  Config cfg;
  cfg.mode = Mode::fixed_rate;
  cfg.bpp = 2.0;

  Stats stats;
  const auto blob = compress(field.data(), dims, cfg, &stats);
  // Final size must be near (at or under) the requested rate; the lossless
  // pass and headers add slack in both directions.
  EXPECT_LE(stats.bpp, cfg.bpp * 1.05 + 0.1);

  std::vector<double> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, out_dims), Status::ok);
  // No error guarantee, but reconstruction must be sane.
  const auto q = [&] {
    double sq = 0;
    for (size_t i = 0; i < field.size(); ++i) {
      const double e = field[i] - recon[i];
      sq += e * e;
    }
    return std::sqrt(sq / double(field.size()));
  }();
  FieldStats fs = compute_stats(field.data(), field.size());
  EXPECT_LT(q, fs.stddev());  // better than predicting the mean
}

TEST(SperrRoundTrip, FixedRateErrorDecreasesWithRate) {
  const Dims dims{48, 48, 48};
  const auto field = data::miranda_viscosity(dims);
  double prev_rmse = 1e300;
  for (double bpp : {0.5, 1.0, 2.0, 4.0}) {
    Config cfg;
    cfg.mode = Mode::fixed_rate;
    cfg.bpp = bpp;
    const auto blob = compress(field.data(), dims, cfg);
    std::vector<double> recon;
    Dims od;
    ASSERT_EQ(decompress(blob.data(), blob.size(), recon, od), Status::ok);
    double sq = 0;
    for (size_t i = 0; i < field.size(); ++i) {
      const double e = field[i] - recon[i];
      sq += e * e;
    }
    const double rmse = std::sqrt(sq / double(field.size()));
    EXPECT_LT(rmse, prev_rmse) << "bpp " << bpp;
    prev_rmse = rmse;
  }
}

TEST(SperrRoundTrip, LosslessPassTogglePreservesResults) {
  const Dims dims{32, 32, 8};
  const auto field = data::s3d_ch4(dims);
  for (bool lossless : {false, true}) {
    Config cfg;
    cfg.tolerance = 1e-4;
    cfg.lossless_pass = lossless;
    const auto blob = compress(field.data(), dims, cfg);
    std::vector<double> recon;
    Dims od;
    ASSERT_EQ(decompress(blob.data(), blob.size(), recon, od), Status::ok);
    EXPECT_LE(max_abs_err(field, recon), cfg.tolerance);
  }
}

TEST(SperrRoundTrip, InvalidConfigThrows) {
  const Dims dims{8, 8, 8};
  std::vector<double> field(dims.total(), 1.0);
  Config bad;
  bad.tolerance = 0.0;
  EXPECT_THROW((void)compress(field.data(), dims, bad), std::invalid_argument);
  Config bad_rate;
  bad_rate.mode = Mode::fixed_rate;
  bad_rate.bpp = -1.0;
  EXPECT_THROW((void)compress(field.data(), dims, bad_rate), std::invalid_argument);
}

TEST(SperrRoundTrip, SubnormalFieldRoundTripsInEveryMode) {
  // Every coefficient of this field is subnormal, so a quantization step
  // derived from the largest one can underflow to 0, which the SPECK
  // header (and so the decoder) rejects.
  const Dims dims{16, 16, 16};
  std::vector<double> field(dims.total());
  for (size_t i = 0; i < field.size(); ++i) field[i] = (i * 7 % 3 == 0 ? -1e-310 : 1e-310);

  for (const Mode mode : {Mode::pwe, Mode::fixed_rate, Mode::target_rmse}) {
    Config cfg;
    cfg.mode = mode;
    cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 20);
    cfg.bpp = 4.0;
    cfg.rmse = 1e-311;
    const auto blob = compress(field.data(), dims, cfg);
    std::vector<double> recon;
    Dims out_dims;
    ASSERT_EQ(decompress(blob.data(), blob.size(), recon, out_dims), Status::ok)
        << "mode " << int(mode);
    ASSERT_EQ(out_dims, dims);
    for (const double v : recon) {
      ASSERT_TRUE(std::isfinite(v)) << "mode " << int(mode);
    }
    if (mode == Mode::pwe) {
      EXPECT_LE(max_abs_err(field, recon), cfg.tolerance);
    }
  }
}

TEST(SperrRoundTrip, PweStepThatUnderflowsIsRejected) {
  const Dims dims{8, 8, 8};
  std::vector<double> field(dims.total(), 0.0);
  Config cfg;
  cfg.tolerance = std::numeric_limits<double>::denorm_min();
  cfg.q_over_t = 0.4;  // q = 0.4 * denorm_min rounds to 0
  EXPECT_THROW((void)compress(field.data(), dims, cfg), std::invalid_argument);
  cfg.q_over_t = 1.0;
  EXPECT_NO_THROW((void)compress(field.data(), dims, cfg));
}

TEST(SperrRoundTrip, ChunkBeyondSpeckLimitRejectedBeforeInputIsRead) {
  // 2048 x 1024 x 1024 = 2^31 voxels in one chunk is past the SPECK coder's
  // limit. Validation runs first, so a null input is never dereferenced.
  const Dims dims{2048, 1024, 1024};
  Config cfg;
  cfg.tolerance = 1e-3;
  cfg.chunk_dims = dims;
  EXPECT_THROW((void)compress(static_cast<const double*>(nullptr), dims, cfg),
               std::invalid_argument);
  EXPECT_THROW((void)compress(static_cast<const float*>(nullptr), dims, cfg),
               std::invalid_argument);
  // A 1000-deep chunk grid over 1024 leaves a 24-sample sliver that the
  // chunker folds into the last chunk, which is then 2^31 voxels again.
  cfg.chunk_dims = Dims{2048, 1024, 1000};
  EXPECT_THROW((void)compress(static_cast<const double*>(nullptr), dims, cfg),
               std::invalid_argument);
}

TEST(SperrRoundTrip, ZeroChunkExtentRejected) {
  // The chunker would clamp a zero extent to one-voxel chunks; the shared
  // validation refuses it instead, in memory and out of core alike.
  const Dims dims{16, 12, 8};
  const auto field = data::miranda_pressure(dims);
  const std::string raw = testing::TempDir() + "sperr_zero_chunk_" +
                          std::to_string(::getpid()) + ".raw";
  const std::string packed = raw + ".sperr";
  {
    std::ofstream f(raw, std::ios::binary);
    f.write(reinterpret_cast<const char*>(field.data()),
            std::streamsize(field.size() * sizeof(double)));
  }
  Config cfg;
  cfg.tolerance = 1e-3;
  cfg.chunk_dims = {8, 8, 8};
  EXPECT_NO_THROW((void)compress(field.data(), dims, cfg));
  EXPECT_EQ(outofcore::compress_file(raw, dims, 8, cfg, packed), Status::ok);
  for (const Dims chunk : {Dims{0, 0, 0}, Dims{0, 8, 8}, Dims{8, 0, 8}, Dims{8, 8, 0}}) {
    SCOPED_TRACE("chunk " + chunk.to_string());
    cfg.chunk_dims = chunk;
    EXPECT_THROW((void)compress(field.data(), dims, cfg), std::invalid_argument);
    EXPECT_EQ(outofcore::compress_file(raw, dims, 8, cfg, packed),
              Status::invalid_argument);
  }
  std::remove(raw.c_str());
  std::remove(packed.c_str());
}

TEST(SperrRoundTrip, NonFiniteInputRejected) {
  const Dims dims{8, 8, 8};
  Config cfg;
  cfg.tolerance = 1e-3;
  std::vector<double> with_nan(dims.total(), 1.0);
  with_nan[100] = std::nan("");
  EXPECT_THROW((void)compress(with_nan.data(), dims, cfg), std::invalid_argument);
  std::vector<double> with_inf(dims.total(), 1.0);
  with_inf[7] = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)compress(with_inf.data(), dims, cfg), std::invalid_argument);
}

TEST(SperrRoundTrip, CorruptStreamRejected) {
  std::vector<uint8_t> garbage(100, 0x5a);
  std::vector<double> out;
  Dims dims;
  EXPECT_NE(decompress(garbage.data(), garbage.size(), out, dims), Status::ok);
}

TEST(SperrRoundTrip, TamperedPayloadDetectedOrBounded) {
  const Dims dims{32, 32, 1};
  const auto field = data::lighthouse_2d(dims);
  Config cfg;
  cfg.tolerance = 0.5;
  cfg.lossless_pass = false;  // tamper with the raw coder payload
  auto blob = compress(field.data(), dims, cfg);
  blob[blob.size() / 2] ^= 0xff;
  std::vector<double> recon;
  Dims od;
  // A flipped payload byte may still "decode" (entropy-coded bits have no
  // checksum) but must never crash and must return a full-size field.
  const Status s = decompress(blob.data(), blob.size(), recon, od);
  if (s == Status::ok) {
    EXPECT_EQ(recon.size(), field.size());
  }
}

TEST(Tolerance, TableOneTranslation) {
  std::vector<double> field = {0.0, 1024.0};  // range 1024
  EXPECT_DOUBLE_EQ(tolerance_from_idx(field.data(), field.size(), 10), 1.0);
  EXPECT_DOUBLE_EQ(tolerance_from_idx(field.data(), field.size(), 20),
                   1024.0 / (1024.0 * 1024.0));
}

}  // namespace
}  // namespace sperr
