// Tests for the paper's §VII extension features implemented here:
// average-error-targeted compression and multi-resolution reconstruction.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "common/stats.h"
#include "data/synthetic.h"
#include "metrics/metrics.h"
#include "sperr/chunker.h"
#include "sperr/pipeline.h"
#include "sperr/sperr.h"
#include "wavelet/dwt.h"

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

TEST(TargetRmse, AchievedRmseAtOrBelowTarget) {
  const Dims dims{64, 64, 32};
  const auto field = data::miranda_pressure(dims);
  const FieldStats fs = compute_stats(field.data(), field.size());

  for (const double rel : {1e-2, 1e-4, 1e-6}) {
    Config cfg;
    cfg.mode = Mode::target_rmse;
    cfg.rmse = fs.stddev() * rel;
    const auto blob = compress(field.data(), dims, cfg);
    std::vector<double> recon;
    Dims od;
    ASSERT_EQ(decompress(blob.data(), blob.size(), recon, od), Status::ok);
    const double achieved = rmse_of(field, recon);
    EXPECT_LE(achieved, cfg.rmse) << "relative target " << rel;
    // Not wastefully below target either (within ~8x).
    EXPECT_GE(achieved, cfg.rmse / 8.0) << "relative target " << rel;
  }
}

TEST(TargetRmse, TighterTargetCostsMoreBits) {
  const Dims dims{48, 48, 48};
  const auto field = data::s3d_temperature(dims);
  size_t prev = 0;
  for (const double rmse : {10.0, 1.0, 0.1, 0.01}) {
    Config cfg;
    cfg.mode = Mode::target_rmse;
    cfg.rmse = rmse;
    const auto blob = compress(field.data(), dims, cfg);
    EXPECT_GT(blob.size(), prev);
    prev = blob.size();
  }
}

TEST(TargetRmse, InvalidTargetThrows) {
  std::vector<double> f(64, 1.0);
  Config cfg;
  cfg.mode = Mode::target_rmse;
  cfg.rmse = 0.0;
  EXPECT_THROW((void)compress(f.data(), Dims{4, 4, 4}, cfg), std::invalid_argument);
}

TEST(LowRes, CoarseDimsFollowLevelPlan) {
  const Dims dims{64, 64, 64};
  const auto field = data::miranda_density(dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 15);
  const auto blob = compress(field.data(), dims, cfg);

  std::vector<double> coarse;
  Dims cd;
  ASSERT_EQ(decompress_lowres(blob.data(), blob.size(), 1, coarse, cd), Status::ok);
  EXPECT_EQ(cd, (Dims{32, 32, 32}));
  ASSERT_EQ(decompress_lowres(blob.data(), blob.size(), 2, coarse, cd), Status::ok);
  EXPECT_EQ(cd, (Dims{16, 16, 16}));
  // Dropping more levels than the plan has clamps at the final corner.
  ASSERT_EQ(decompress_lowres(blob.data(), blob.size(), 99, coarse, cd), Status::ok);
  EXPECT_EQ(cd, (Dims{4, 4, 4}));
}

TEST(LowRes, CoarseFieldApproximatesDownsampledData) {
  const Dims dims{64, 64, 64};
  // Smooth field: coarse reconstruction should track a subsampled original.
  const auto field = data::nyx_velocity_x(dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 20);
  const auto blob = compress(field.data(), dims, cfg);

  std::vector<double> coarse;
  Dims cd;
  ASSERT_EQ(decompress_lowres(blob.data(), blob.size(), 1, coarse, cd), Status::ok);
  ASSERT_EQ(cd, (Dims{32, 32, 32}));

  // Compare against 2x-decimated original values.
  double sq = 0, ref_sq = 0;
  for (size_t z = 0; z < cd.z; ++z)
    for (size_t y = 0; y < cd.y; ++y)
      for (size_t x = 0; x < cd.x; ++x) {
        const double ref = field[dims.index(2 * x, 2 * y, 2 * z)];
        const double e = coarse[cd.index(x, y, z)] - ref;
        sq += e * e;
        ref_sq += ref * ref;
      }
  // Within ~20% relative L2 of the decimation (the low-pass filter differs
  // from pure subsampling, so exact agreement is not expected).
  EXPECT_LT(std::sqrt(sq / ref_sq), 0.2);
}

TEST(LowRes, ZeroDropEqualsDecompress) {
  // Drop 0 is the full decode, outlier corrections included, so the PWE
  // bound holds there too: one chunk and four.
  const Dims dims{48, 48, 16};
  const auto field = data::s3d_ch4(dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 20);
  for (const Dims chunk : {Dims{48, 48, 16}, Dims{24, 24, 16}}) {
    cfg.chunk_dims = chunk;
    const auto blob = compress(field.data(), dims, cfg);
    std::vector<double> full, lowres;
    Dims fd, cd;
    ASSERT_EQ(decompress(blob.data(), blob.size(), full, fd), Status::ok);
    ASSERT_EQ(decompress_lowres(blob.data(), blob.size(), 0, lowres, cd), Status::ok);
    EXPECT_EQ(cd, dims);
    EXPECT_EQ(lowres, full);
    EXPECT_LE(metrics::compare(field.data(), lowres.data(), field.size()).max_pwe,
              cfg.tolerance);
  }
}

/// decompress_lowres of a `dims` field cut into cfg.chunk_dims chunks must
/// equal the tiling of each chunk compressed and decoded on its own, at
/// `levels`: the requested `drop` clamped to what every chunk shares. Chunk
/// i's coarse box lands at the sum of the coarse extents before it on each
/// axis, and together the boxes cover `coarse_dims`.
template <typename T>
void expect_coarse_tiling(const std::vector<T>& field, Dims dims, const Config& cfg,
                          size_t drop, size_t levels, Dims coarse_dims) {
  SCOPED_TRACE("drop " + std::to_string(drop));
  const auto blob = compress(field.data(), dims, cfg);
  std::vector<double> coarse;
  Dims cd;
  ASSERT_EQ(decompress_lowres(blob.data(), blob.size(), drop, coarse, cd), Status::ok);
  ASSERT_EQ(cd, coarse_dims);

  const auto chunks = make_chunks(dims, cfg.chunk_dims);
  ASSERT_GT(chunks.size(), 1u);
  std::map<size_t, size_t> at[3];  // per axis: fine origin -> coarse origin
  for (const Chunk& c : chunks) {
    const Dims box = wavelet::lowpass_box_at(c.dims, levels);
    at[0][c.origin.x] = box.x;
    at[1][c.origin.y] = box.y;
    at[2][c.origin.z] = box.z;
  }
  for (auto& axis : at) {
    size_t sum = 0;
    for (auto& [origin, extent] : axis) sum += std::exchange(extent, sum);
  }

  size_t covered = 0;
  for (const Chunk& c : chunks) {
    std::vector<double> wide(c.dims.total());
    gather_chunk(field.data(), dims, c, wide.data());
    const std::vector<T> part(wide.begin(), wide.end());
    Config one = cfg;
    one.chunk_dims = c.dims;
    const auto part_blob = compress(part.data(), c.dims, one);
    std::vector<double> box;
    Dims bd;
    ASSERT_EQ(decompress_lowres(part_blob.data(), part_blob.size(), levels, box, bd),
              Status::ok);
    const Dims o{at[0][c.origin.x], at[1][c.origin.y], at[2][c.origin.z]};
    for (size_t z = 0; z < bd.z; ++z)
      for (size_t y = 0; y < bd.y; ++y)
        for (size_t x = 0; x < bd.x; ++x)
          ASSERT_EQ(coarse[cd.index(o.x + x, o.y + y, o.z + z)], box[bd.index(x, y, z)])
              << "chunk at " << c.origin.to_string() << ", sample " << x << "," << y
              << "," << z;
    covered += box.size();
  }
  EXPECT_EQ(covered, cd.total());
}

TEST(LowRes, MultiChunkCoarseFieldTilesChunkDecodes) {
  const Dims dims{64, 64, 64};
  const auto field = data::miranda_density(dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 10);
  cfg.chunk_dims = Dims{32, 32, 32};
  expect_coarse_tiling(field, dims, cfg, 1, 1, Dims{32, 32, 32});
  expect_coarse_tiling(field, dims, cfg, 2, 2, Dims{16, 16, 16});
  // A 32-wide chunk has 3 levels: the final corners, 4^3 each, tile.
  expect_coarse_tiling(field, dims, cfg, 99, 3, Dims{8, 8, 8});

  const std::vector<float> f32(field.begin(), field.end());
  expect_coarse_tiling(f32, dims, cfg, 1, 1, Dims{32, 32, 32});
}

TEST(LowRes, UnequalChunksClampDropToSharedLevels) {
  // 16^3 chunks over 40 x 26 x 18 cut x into 16 + 16 + 8 and y into
  // 16 + 10: the 8- and 10-wide chunks have one level where the 16-wide
  // ones have two, so a drop of 2 clamps to 1.
  const Dims dims{40, 26, 18};
  const auto wide = data::s3d_temperature(dims, 4);
  const std::vector<float> field(wide.begin(), wide.end());
  Config cfg;
  cfg.mode = Mode::target_rmse;
  cfg.rmse = 2e-3;
  cfg.chunk_dims = Dims{16, 16, 16};
  expect_coarse_tiling(field, dims, cfg, 2, 1, Dims{8 + 8 + 4, 8 + 5, 9});
}

TEST(LowRes, DefaultChunkingClampsDropToSharedLevels) {
  // Default 128^3 chunks cut a 200-wide axis 128 + 72: five levels against
  // four, so a drop of 5 clamps to 4 (128 -> 8 and 72 -> 5 per axis).
  const Dims dims{200, 72, 200};
  const auto field = data::miranda_pressure(dims);
  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 10);
  expect_coarse_tiling(field, dims, cfg, 5, 4, Dims{8 + 5, 5, 8 + 5});
}

TEST(PartialInverseDwt, KeepAllLevelsIsIdentity) {
  const Dims dims{32, 32, 8};
  auto field = data::miranda_viscosity(dims);
  const auto orig = field;
  wavelet::forward_dwt(field.data(), dims);
  const size_t levels = wavelet::plan_levels(dims).max();
  wavelet::inverse_dwt_partial(field.data(), dims, levels);  // undo nothing
  // Still in the fully transformed domain: differs from the original.
  double diff = 0;
  for (size_t i = 0; i < field.size(); ++i) diff += std::fabs(field[i] - orig[i]);
  EXPECT_GT(diff, 1.0);
  wavelet::inverse_dwt_partial(field.data(), dims, 0);  // now undo all
  for (size_t i = 0; i < field.size(); ++i)
    ASSERT_NEAR(field[i], orig[i], 1e-8 * (1.0 + std::fabs(orig[i])));
}

TEST(PartialInverseDwt, DcGainNormalizesConstants) {
  // A constant field's coarse reconstruction must reproduce the constant.
  const Dims dims{32, 32, 32};
  std::vector<double> field(dims.total(), 7.25);
  Config cfg;
  cfg.tolerance = 1e-6;
  const auto blob = compress(field.data(), dims, cfg);
  std::vector<double> coarse;
  Dims cd;
  ASSERT_EQ(decompress_lowres(blob.data(), blob.size(), 2, coarse, cd), Status::ok);
  for (size_t i = 0; i < coarse.size(); ++i)
    EXPECT_NEAR(coarse[i], 7.25, 0.02) << "coarse sample " << i;
}

}  // namespace
}  // namespace sperr
