// Property-based tests: the PWE guarantee and the rate/quality monotonicity
// must hold over randomized fields, shapes, and tolerances — not just on the
// handful of cases the unit tests pin down.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "data/synthetic.h"
#include "sperr/pipeline.h"
#include "sperr/sperr.h"

namespace sperr {
namespace {

double max_abs_err(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0;
  for (size_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

/// Random field with mixed smooth + rough content — adversarial for a
/// wavelet coder (rough parts spawn many outliers).
std::vector<double> mixed_field(Dims dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> f(dims.total());
  const double sx = 1.0 / double(dims.x);
  const double sy = 1.0 / double(dims.y);
  const double sz = 1.0 / double(dims.z);
  for (size_t z = 0; z < dims.z; ++z)
    for (size_t y = 0; y < dims.y; ++y)
      for (size_t x = 0; x < dims.x; ++x) {
        const double smooth =
            data::fractal_noise(double(x) * sx, double(y) * sy, double(z) * sz,
                                seed, 4, 3.0, 0.5);
        const double rough = rng.uniform() < 0.02 ? rng.gaussian() * 5.0 : 0.0;
        f[dims.index(x, y, z)] = 10.0 * smooth + rough;
      }
  return f;
}

/// pipeline::encode_chunk over a whole field.
pipeline::ChunkStream encode_field(const std::vector<double>& field, Dims dims,
                                   const Config& cfg) {
  pipeline::ChunkStream cs;
  EXPECT_EQ(pipeline::encode_chunk(field.data(), dims, Chunk{{0, 0, 0}, dims}, cfg, cs,
                                   nullptr, 1, false),
            Status::ok);
  return cs;
}

class PweProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (shape, idx)

TEST_P(PweProperty, GuaranteeHoldsForRandomFieldAndTolerance) {
  const auto [shape_id, idx] = GetParam();
  static const Dims shapes[] = {{40, 40, 40}, {63, 31, 15}, {128, 16, 4},
                                {17, 17, 17}, {256, 24, 1}};
  const Dims dims = shapes[shape_id];
  const auto field = mixed_field(dims, uint64_t(shape_id) * 100 + uint64_t(idx));

  Config cfg;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), idx);
  cfg.chunk_dims = Dims{32, 32, 32};
  const auto blob = compress(field.data(), dims, cfg);

  std::vector<double> recon;
  Dims od;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, od), Status::ok);
  EXPECT_LE(max_abs_err(field, recon), cfg.tolerance)
      << "shape " << dims.to_string() << " idx " << idx;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PweProperty,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(5, 10, 20, 30)));

TEST(PweProperty, TighterToleranceNeverIncreasesError) {
  const Dims dims{48, 48, 16};
  const auto field = mixed_field(dims, 31337);
  double prev_err = 1e300;
  double prev_size = 0;
  for (int idx : {5, 10, 15, 20, 25}) {
    Config cfg;
    cfg.tolerance = tolerance_from_idx(field.data(), field.size(), idx);
    Stats stats;
    const auto blob = compress(field.data(), dims, cfg, &stats);
    std::vector<double> recon;
    Dims od;
    ASSERT_EQ(decompress(blob.data(), blob.size(), recon, od), Status::ok);
    const double err = max_abs_err(field, recon);
    EXPECT_LE(err, cfg.tolerance);
    EXPECT_LE(err, prev_err * (1 + 1e-9));
    EXPECT_GT(double(stats.compressed_bytes), prev_size);  // tighter costs more
    prev_err = err;
    prev_size = double(stats.compressed_bytes);
  }
}

TEST(PweProperty, QOverTSweepKeepsGuarantee) {
  // The coefficient/outlier balance q/t (paper §IV-D) is a performance
  // knob, never a correctness knob.
  const Dims dims{32, 32, 32};
  const auto field = mixed_field(dims, 555);
  const double t = tolerance_from_idx(field.data(), field.size(), 12);
  for (double q_over_t : {1.0, 1.2, 1.5, 2.0, 3.0}) {
    Config cfg;
    cfg.tolerance = t;
    cfg.q_over_t = q_over_t;
    const auto blob = compress(field.data(), dims, cfg);
    std::vector<double> recon;
    Dims od;
    ASSERT_EQ(decompress(blob.data(), blob.size(), recon, od), Status::ok);
    EXPECT_LE(max_abs_err(field, recon), t) << "q/t = " << q_over_t;
  }
}

TEST(PweProperty, ConstantFieldCompressesToAlmostNothing) {
  const Dims dims{64, 64, 64};
  std::vector<double> field(dims.total(), 42.0);
  Config cfg;
  cfg.tolerance = 1e-9;
  Stats stats;
  const auto blob = compress(field.data(), dims, cfg, &stats);
  EXPECT_LT(blob.size(), 2048u);
  std::vector<double> recon;
  Dims od;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, od), Status::ok);
  EXPECT_LE(max_abs_err(field, recon), cfg.tolerance);
}

TEST(PweProperty, WorstCaseWhiteNoiseStillBounded) {
  // Pure white noise defeats the transform entirely: nearly everything
  // becomes an outlier or a coded coefficient — the guarantee must survive.
  const Dims dims{24, 24, 24};
  Rng rng(606);
  std::vector<double> field(dims.total());
  for (auto& v : field) v = rng.gaussian();
  Config cfg;
  cfg.tolerance = 0.01;
  const auto blob = compress(field.data(), dims, cfg);
  std::vector<double> recon;
  Dims od;
  ASSERT_EQ(decompress(blob.data(), blob.size(), recon, od), Status::ok);
  EXPECT_LE(max_abs_err(field, recon), cfg.tolerance);
}

TEST(PipelineProperty, OutlierCountDropsAsQShrinks) {
  // Paper Fig. 2: smaller q => better SPECK quality => fewer outliers.
  const Dims dims{48, 48, 8};
  const auto field = mixed_field(dims, 12);
  const double t = 0.05;
  size_t prev_outliers = SIZE_MAX;
  for (double q_over_t : {3.0, 2.0, 1.5, 1.0}) {
    Config cfg;
    cfg.tolerance = t;
    cfg.q_over_t = q_over_t;
    const auto cs = encode_field(field, dims, cfg);
    EXPECT_LE(cs.num_outliers, prev_outliers) << "q/t = " << q_over_t;
    prev_outliers = cs.num_outliers;
  }
}

TEST(PipelineProperty, StageTimingsArePopulated) {
  const Dims dims{32, 32, 32};
  const auto field = mixed_field(dims, 77);
  Config pwe;
  pwe.tolerance = 0.01;
  const auto cs = encode_field(field, dims, pwe);
  EXPECT_GT(cs.timing.transform_s, 0.0);
  EXPECT_GT(cs.timing.speck_s, 0.0);
  EXPECT_GT(cs.timing.locate_s, 0.0);
  EXPECT_GE(cs.timing.outlier_s, 0.0);
  EXPECT_GT(cs.timing.total(), 0.0);
}

TEST(PipelineProperty, SpeckSetupAndFinishFitInsideTheStage) {
  // EncodeStats splits one SPECK call into setup, the per-plane passes and
  // finish. They are disjoint spans inside the pipeline's speck_s span, so
  // each is populated and together they cannot exceed it — per chunk, and
  // summed over chunks in Stats.
  const Dims dims{40, 40, 20};
  const auto field = mixed_field(dims, 31);
  Config pwe;
  pwe.tolerance = 0.01;
  const auto cs = encode_field(field, dims, pwe);
  const auto& st = cs.speck_stats;
  EXPECT_GT(st.setup_s, 0.0);
  EXPECT_GT(st.finish_s, 0.0);
  double passes = 0.0;
  for (const auto& p : st.passes) passes += p.sorting_s + p.refinement_s;
  EXPECT_LE(st.setup_s + passes + st.finish_s, cs.timing.speck_s);

  Config cfg;
  cfg.tolerance = 0.01;
  cfg.chunk_dims = {20, 20, 20};
  Stats stats;
  compress(field.data(), dims, cfg, &stats);
  EXPECT_GT(stats.speck_setup_s, 0.0);
  EXPECT_GT(stats.speck_finish_s, 0.0);
  EXPECT_LE(stats.speck_setup_s + stats.speck_sorting_s +
                stats.speck_refinement_s + stats.speck_finish_s,
            stats.timing.speck_s);
}

TEST(PipelineProperty, SpeckStatsThreadThroughChunkStreamAndStats) {
  const Dims dims{40, 40, 20};
  const auto field = mixed_field(dims, 31);
  Config pwe;
  pwe.tolerance = 0.01;
  const auto cs = encode_field(field, dims, pwe);
  EXPECT_GT(cs.speck_stats.payload_bits, 0u);
  EXPECT_GT(cs.speck_stats.planes_coded, 0u);
  EXPECT_GT(cs.speck_stats.significant_count, 0u);
  // payload_bits is the stream minus the fixed header, rounded to bytes.
  EXPECT_EQ(cs.speck.size(),
            speck::Header::kBytes + (cs.speck_stats.payload_bits + 7) / 8);

  // The chunked compressor aggregates the same counters across chunks.
  Config cfg;
  cfg.tolerance = 0.01;
  cfg.chunk_dims = {20, 20, 20};  // divides 40x40x20 into exactly 4 chunks
  Stats stats;
  compress(field.data(), dims, cfg, &stats);
  EXPECT_EQ(stats.num_chunks, 4u);
  EXPECT_GT(stats.speck_payload_bits, 0u);
  EXPECT_GE(stats.speck_planes_coded, stats.num_chunks);  // >= 1 plane per chunk
  EXPECT_GT(stats.speck_significant, 0u);
  // Per-chunk streams round payload bits up to bytes, so the byte total is
  // bracketed by the aggregated bit count.
  EXPECT_GE(stats.speck_bytes,
            stats.num_chunks * speck::Header::kBytes + stats.speck_payload_bits / 8);
  EXPECT_LE(stats.speck_bytes, stats.num_chunks * (speck::Header::kBytes + 1) +
                                   stats.speck_payload_bits / 8);
}

}  // namespace
}  // namespace sperr
