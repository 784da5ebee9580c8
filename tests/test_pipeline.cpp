// Direct tests of the four-stage pipeline (sperr/pipeline.h) — the layer the
// figure benches instrument — independent of the container format.

#include "sperr/pipeline.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "metrics/metrics.h"
#include "speck/decoder.h"
#include "speck/encoder.h"
#include "sperr/sperr.h"
#include "wavelet/dwt.h"

namespace sperr::pipeline {
namespace {

Config pwe_config(double tolerance, double q_over_t = 1.5) {
  Config cfg;
  cfg.tolerance = tolerance;
  cfg.q_over_t = q_over_t;
  return cfg;
}

/// encode_chunk over a whole field.
ChunkStream encode_field(const std::vector<double>& field, Dims dims, const Config& cfg,
                         std::vector<outlier::Outlier>* outliers = nullptr) {
  ChunkStream cs;
  EXPECT_EQ(encode_chunk(field.data(), dims, Chunk{{0, 0, 0}, dims}, cfg, cs, nullptr, 1,
                         false, outliers),
            Status::ok);
  return cs;
}

TEST(Pipeline, PweEncodeDecodeBoundsEveryPoint) {
  const Dims dims{40, 40, 20};
  const auto field = data::miranda_pressure(dims);
  const double t = tolerance_from_idx(field.data(), field.size(), 18);
  const auto cs = encode_field(field, dims, pwe_config(t));
  std::vector<double> recon(dims.total());
  ASSERT_EQ(decode(cs.speck.data(), cs.speck.size(), cs.outlier.data(),
                   cs.outlier.size(), dims, recon.data()), Status::ok);
  for (size_t i = 0; i < field.size(); ++i)
    ASSERT_LE(std::fabs(field[i] - recon[i]), t) << "point " << i;
}

TEST(Pipeline, CapturedOutliersAreExactlyTheViolators) {
  const Dims dims{32, 32, 16};
  const auto field = data::nyx_dark_matter_density(dims);
  const double t = tolerance_from_idx(field.data(), field.size(), 12);

  std::vector<outlier::Outlier> outliers;
  const auto cs = encode_field(field, dims, pwe_config(t, 2.5), &outliers);
  EXPECT_EQ(outliers.size(), cs.num_outliers);

  // Reproduce the wavelet-only reconstruction and check the captured list
  // is exactly the set of points violating t.
  std::vector<double> coeffs = field;
  wavelet::forward_dwt(coeffs.data(), dims);
  std::vector<double> recon;
  (void)speck::encode(coeffs.data(), dims, 2.5 * t, 0, nullptr, &recon);
  wavelet::inverse_dwt(recon.data(), dims);

  size_t violators = 0;
  size_t oi = 0;
  for (size_t i = 0; i < field.size(); ++i) {
    const double err = field[i] - recon[i];
    if (std::fabs(err) > t) {
      ++violators;
      ASSERT_LT(oi, outliers.size());
      EXPECT_EQ(outliers[oi].pos, i);
      EXPECT_DOUBLE_EQ(outliers[oi].corr, err);
      ++oi;
    }
  }
  EXPECT_EQ(violators, outliers.size());
}

TEST(Pipeline, FixedRateRespectsBudget) {
  const Dims dims{32, 32, 32};
  const auto field = data::s3d_velocity_x(dims);
  Config cfg;
  cfg.mode = Mode::fixed_rate;
  for (const size_t budget : {1000u, 10000u, 100000u}) {
    cfg.bpp = double(budget) / double(dims.total());
    ASSERT_EQ(fixed_rate_budget(cfg.bpp, dims), budget);
    const auto cs = encode_field(field, dims, cfg);
    EXPECT_TRUE(cs.outlier.empty());
    EXPECT_LE(cs.speck.size(), budget / 8 + 64);
    std::vector<double> recon(dims.total());
    EXPECT_EQ(decode(cs.speck.data(), cs.speck.size(), cs.outlier.data(),
                     cs.outlier.size(), dims, recon.data()), Status::ok);
  }
}

TEST(Pipeline, TargetRmseNoOutlierStream) {
  const Dims dims{32, 32, 8};
  const auto field = data::miranda_viscosity(dims);
  Config cfg;
  cfg.mode = Mode::target_rmse;
  cfg.rmse = 1e-5;
  const auto cs = encode_field(field, dims, cfg);
  EXPECT_TRUE(cs.outlier.empty());
  EXPECT_EQ(cs.num_outliers, 0u);
  std::vector<double> recon(dims.total());
  ASSERT_EQ(decode(cs.speck.data(), cs.speck.size(), cs.outlier.data(),
                   cs.outlier.size(), dims, recon.data()), Status::ok);
  double sq = 0;
  for (size_t i = 0; i < field.size(); ++i) {
    const double e = field[i] - recon[i];
    sq += e * e;
  }
  EXPECT_LE(std::sqrt(sq / double(field.size())), 1e-5);
}

TEST(Pipeline, SubBoxEncodesAsItsCopy) {
  // encode_chunk reads a chunk in place: gathered into the coefficient
  // buffer, and compared row by row with the caller's field to locate
  // outliers. A chunk at a non-zero origin on every axis must code exactly
  // as the same box copied out into a one-chunk volume.
  const Dims vol{37, 29, 23};
  const auto field = data::miranda_pressure(vol, 3);
  const Chunk chunk{{5, 7, 3}, {20, 15, 12}};
  std::vector<double> box(chunk.dims.total());
  for (size_t z = 0; z < chunk.dims.z; ++z)
    for (size_t y = 0; y < chunk.dims.y; ++y)
      for (size_t x = 0; x < chunk.dims.x; ++x)
        box[chunk.dims.index(x, y, z)] = field[vol.index(
            chunk.origin.x + x, chunk.origin.y + y, chunk.origin.z + z)];

  for (const Mode mode : {Mode::pwe, Mode::fixed_rate, Mode::target_rmse})
    for (const bool float_output : {false, true}) {
      Config cfg;
      cfg.mode = mode;
      cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 16);
      cfg.bpp = 3.0;
      cfg.rmse = cfg.tolerance;
      ChunkStream in_place, copied;
      std::vector<outlier::Outlier> in_place_outliers, copied_outliers;
      ASSERT_EQ(encode_chunk(field.data(), vol, chunk, cfg, in_place, nullptr, 1,
                             float_output, &in_place_outliers),
                Status::ok);
      ASSERT_EQ(encode_chunk(box.data(), chunk.dims, Chunk{{0, 0, 0}, chunk.dims}, cfg,
                             copied, nullptr, 1, float_output, &copied_outliers),
                Status::ok);
      const auto where = ::testing::Message()
                         << "mode " << int(mode) << " float_output " << float_output;
      EXPECT_EQ(in_place.speck, copied.speck) << where;
      EXPECT_EQ(in_place.outlier, copied.outlier) << where;
      EXPECT_EQ(in_place.num_outliers, copied.num_outliers) << where;
      EXPECT_EQ(in_place.mean, copied.mean) << where;
      EXPECT_EQ(in_place_outliers, copied_outliers) << where;
      if (mode == Mode::pwe) {
        EXPECT_GT(in_place.num_outliers, 0u) << where;
        EXPECT_EQ(in_place_outliers.size(), in_place.num_outliers) << where;
      } else {
        EXPECT_TRUE(in_place.outlier.empty()) << where;
      }
    }
}

TEST(Pipeline, DecodeDropPacksScaledLowpassBox) {
  // A drop stops the inverse early and packs the low-pass box, with the DC
  // gain of its passes divided out, into the front of the output; the
  // outlier stream is not applied. Drop 0 is the full decode.
  const Dims dims{32, 32, 16};
  const auto field = data::s3d_temperature(dims);
  const auto cs = encode_field(field, dims, pwe_config(0.05));
  ASSERT_FALSE(cs.outlier.empty());
  std::vector<double> full(dims.total()), zero(dims.total());
  ASSERT_EQ(decode(cs.speck.data(), cs.speck.size(), cs.outlier.data(),
                   cs.outlier.size(), dims, full.data()), Status::ok);
  ASSERT_EQ(decode(cs.speck.data(), cs.speck.size(), cs.outlier.data(),
                   cs.outlier.size(), dims, zero.data(), nullptr, 1, 0),
            Status::ok);
  EXPECT_EQ(zero, full);

  for (const size_t drop : {1u, 2u}) {
    std::vector<double> ref(dims.total()), got(dims.total());
    ASSERT_EQ(speck::decode(cs.speck.data(), cs.speck.size(), dims, ref.data()),
              Status::ok);
    wavelet::inverse_dwt_partial(ref.data(), dims, drop);
    ASSERT_EQ(decode(cs.speck.data(), cs.speck.size(), cs.outlier.data(),
                     cs.outlier.size(), dims, got.data(), nullptr, 1, drop),
              Status::ok);
    const Dims box = wavelet::lowpass_box_at(dims, drop);
    ASSERT_EQ(box, (Dims{size_t(32) >> drop, size_t(32) >> drop, size_t(16) >> drop}));
    const double scale = 1.0 / std::pow(wavelet::lowpass_dc_gain(), double(3 * drop));
    for (size_t z = 0; z < box.z; ++z)
      for (size_t y = 0; y < box.y; ++y)
        for (size_t x = 0; x < box.x; ++x)
          ASSERT_EQ(got[box.index(x, y, z)], ref[dims.index(x, y, z)] * scale)
              << "drop " << drop << " at " << x << "," << y << "," << z;
  }
}

TEST(Pipeline, CoefficientRmseTracksReconstructionRmse) {
  // Mode::target_rmse picks q from the paper's §III-A premise: the CDF 9/7
  // basis is near-orthogonal and ~unit-norm, so the coefficient-domain RMSE
  // of the SPECK quantization is the reconstruction RMSE within a small
  // factor. Both are measured from the decoder, across three scales.
  const Dims dims{40, 40, 24};
  const auto field = data::miranda_density(dims);
  std::vector<double> coeffs = field;
  wavelet::forward_dwt(coeffs.data(), dims);

  for (const double q : {1e-2, 1e-4, 1e-6}) {
    const auto stream = speck::encode(coeffs.data(), dims, q);
    std::vector<double> decoded(dims.total());
    ASSERT_EQ(speck::decode(stream.data(), stream.size(), dims, decoded.data()),
              Status::ok);
    const double coeff_rmse =
        metrics::compare(coeffs.data(), decoded.data(), coeffs.size()).rmse;
    wavelet::inverse_dwt(decoded.data(), dims);
    const double recon_rmse =
        metrics::compare(field.data(), decoded.data(), field.size()).rmse;
    ASSERT_GT(recon_rmse, 0.0) << "q " << q;
    const double ratio = coeff_rmse / recon_rmse;
    EXPECT_GT(ratio, 0.5) << "q " << q;
    EXPECT_LT(ratio, 2.0) << "q " << q;
  }
}

}  // namespace
}  // namespace sperr::pipeline
