// Golden-stream regression tests: committed .sperr fixtures produced by
// sperr::compress at a pinned configuration. A fresh encode of the same
// deterministic synthetic field must reproduce the fixture byte for byte,
// and decoding the fixture must honor the mode's quality contract. Any
// unintentional change to the wavelet transform, SPECK coder, outlier
// coder, lossless back end, or container layout trips these immediately.
//
// Regenerating (after an INTENTIONAL format/coder change):
//   SPERR_GOLDEN_REGEN=1 ./test_golden  # rewrites tests/golden/*.sperr
// then commit the new fixtures together with the change that motivated them.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/byteio.h"
#include "data/synthetic.h"
#include "sperr/header.h"
#include "sperr/sperr.h"

namespace sperr {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(GOLDEN_DIR) + "/" + name;
}

bool regen_requested() {
  const char* env = std::getenv("SPERR_GOLDEN_REGEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::vector<uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

/// Compare freshly produced container bytes against the committed fixture
/// (or rewrite it under SPERR_GOLDEN_REGEN=1) and return the FIXTURE bytes.
std::vector<uint8_t> check_bytes(const std::string& name,
                                 const std::vector<uint8_t>& fresh) {
  const std::string path = golden_path(name);
  if (regen_requested()) write_file(path, fresh);

  const auto golden = read_file(path);
  EXPECT_FALSE(golden.empty()) << path << " missing — run with SPERR_GOLDEN_REGEN=1";
  EXPECT_EQ(fresh.size(), golden.size()) << name << ": stream length changed";
  EXPECT_TRUE(fresh == golden) << name << ": stream bytes changed";
  return golden;
}

/// Compress the field, check the bytes against the fixture, then decode the
/// FIXTURE bytes and hand the reconstruction back for mode-specific checks.
void check_golden(const std::string& name, const std::vector<double>& field,
                  Dims dims, const Config& cfg, std::vector<double>& recon) {
  const auto golden = check_bytes(name, compress(field.data(), dims, cfg));
  ASSERT_FALSE(::testing::Test::HasFailure());

  Dims out_dims;
  ASSERT_EQ(decompress(golden.data(), golden.size(), recon, out_dims), Status::ok);
  ASSERT_EQ(out_dims.x, dims.x);
  ASSERT_EQ(out_dims.y, dims.y);
  ASSERT_EQ(out_dims.z, dims.z);
  ASSERT_EQ(recon.size(), dims.total());
  for (size_t i = 0; i < recon.size(); ++i)
    ASSERT_TRUE(std::isfinite(recon[i])) << name << " index " << i;
}

TEST(GoldenStreams, Pwe3dOddDims) {
  const Dims dims{33, 17, 9};  // odd, non-power-of-two extents
  const auto field = data::miranda_pressure(dims, 7);
  Config cfg;
  cfg.mode = Mode::pwe;
  cfg.tolerance = 0.02;
  std::vector<double> recon;
  check_golden("pwe_3d.sperr", field, dims, cfg, recon);
  for (size_t i = 0; i < recon.size(); ++i)
    ASSERT_LE(std::fabs(field[i] - recon[i]), cfg.tolerance) << "index " << i;
}

TEST(GoldenStreams, FixedRate3d) {
  const Dims dims{32, 32, 16};
  const auto field = data::nyx_dark_matter_density(dims, 3);
  Config cfg;
  cfg.mode = Mode::fixed_rate;
  cfg.bpp = 2.0;
  std::vector<double> recon;
  check_golden("rate_3d.sperr", field, dims, cfg, recon);
  // No point-wise bound in this mode; the budget bound is the contract.
  const auto golden = read_file(golden_path("rate_3d.sperr"));
  EXPECT_LT(double(golden.size()) * 8.0 / double(dims.total()), cfg.bpp * 1.25);
}

TEST(GoldenStreams, Pwe2dSlice) {
  const Dims dims{48, 37, 1};  // 2D: quadtree partitioning path
  const auto field = data::lighthouse_2d(dims, 11);
  Config cfg;
  cfg.mode = Mode::pwe;
  cfg.tolerance = 0.005;
  std::vector<double> recon;
  check_golden("pwe_2d.sperr", field, dims, cfg, recon);
  for (size_t i = 0; i < recon.size(); ++i)
    ASSERT_LE(std::fabs(field[i] - recon[i]), cfg.tolerance) << "index " << i;
}

// ---- Multi-chunk container writer ------------------------------------------
// The fixtures above are single-chunk f64. These two pin what only a
// multi-chunk container carries: the directory (lengths, checksums, means)
// over a non-divisible chunk grid, the f32 precision byte, the target-rmse
// quality field, and the container that truncate_fixed_rate re-assembles.

TEST(GoldenStreams, TargetRmseF32MultiChunk) {
  const Dims dims{40, 26, 18};  // 16^3 chunks: a 3 x 2 x 1 grid of unequal chunks
  const auto wide = data::s3d_temperature(dims, 4);
  const std::vector<float> field(wide.begin(), wide.end());
  Config cfg;
  cfg.mode = Mode::target_rmse;
  cfg.rmse = 2e-3;
  cfg.chunk_dims = Dims{16, 16, 16};
  const auto golden = check_bytes("rmse_f32_multichunk.sperr",
                                  compress(field.data(), dims, cfg));
  ASSERT_FALSE(HasFailure());
  ASSERT_EQ(golden[4], ContainerHeader::kVersion);

  std::vector<uint8_t> inner;
  ContainerHeader hdr;
  ASSERT_EQ(open_container(golden.data(), golden.size(), inner, hdr), Status::ok);
  EXPECT_EQ(hdr.precision, 4u);
  EXPECT_EQ(hdr.quality, cfg.rmse);
  EXPECT_EQ(hdr.entries.size(), 6u);

  // The f32 decoder narrows what the f64 decoder reconstructs, and the
  // field meets its RMSE target.
  std::vector<float> recon32;
  std::vector<double> recon64;
  Dims d32, d64;
  ASSERT_EQ(decompress(golden.data(), golden.size(), recon32, d32), Status::ok);
  ASSERT_EQ(decompress(golden.data(), golden.size(), recon64, d64), Status::ok);
  ASSERT_EQ(d32, dims);
  ASSERT_EQ(d64, dims);
  double sq = 0.0;
  for (size_t i = 0; i < recon64.size(); ++i) {
    ASSERT_EQ(recon32[i], float(recon64[i])) << "index " << i;
    const double e = double(field[i]) - recon64[i];
    sq += e * e;
  }
  EXPECT_LE(std::sqrt(sq / double(recon64.size())), cfg.rmse);
}

TEST(GoldenStreams, TruncatedFixedRateMultiChunk) {
  const Dims dims{36, 30, 20};  // 16^3 chunks: a 2 x 2 x 1 grid of unequal chunks
  const auto field = data::nyx_dark_matter_density(dims, 5);
  Config cfg;
  cfg.mode = Mode::fixed_rate;
  cfg.bpp = 6.0;
  cfg.chunk_dims = Dims{16, 16, 16};
  const auto full = compress(field.data(), dims, cfg);
  std::vector<uint8_t> cut;
  ASSERT_EQ(truncate_fixed_rate(full.data(), full.size(), 1.5, cut), Status::ok);
  const auto golden = check_bytes("rate_cut_multichunk.sperr", cut);
  ASSERT_FALSE(HasFailure());

  std::vector<uint8_t> inner;
  ContainerHeader hdr;
  ASSERT_EQ(open_container(golden.data(), golden.size(), inner, hdr), Status::ok);
  EXPECT_EQ(hdr.quality, 1.5);
  EXPECT_EQ(hdr.entries.size(), 4u);
  EXPECT_LT(double(golden.size()) * 8.0 / double(dims.total()), 1.5 * 1.25);

  std::vector<double> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(golden.data(), golden.size(), recon, out_dims), Status::ok);
  ASSERT_EQ(out_dims, dims);
  for (size_t i = 0; i < recon.size(); ++i)
    ASSERT_TRUE(std::isfinite(recon[i])) << "index " << i;
}

// ---- Legacy container compatibility ---------------------------------------
// The *_v2.sperr fixtures are frozen bytes written before container v3 added
// per-chunk checksums. They are decode-only: archives in the wild must keep
// decoding forever, but nothing re-encodes to the old layout.

void check_legacy_v2(const std::string& name, Dims dims,
                     std::vector<double>& recon) {
  const auto golden = read_file(golden_path(name));
  ASSERT_FALSE(golden.empty()) << name << " missing (frozen fixture, never regenerated)";
  ASSERT_EQ(golden[4], 2u) << name << " is not a v2 container";

  Dims out_dims;
  ASSERT_EQ(decompress(golden.data(), golden.size(), recon, out_dims), Status::ok);
  ASSERT_EQ(out_dims.x, dims.x);
  ASSERT_EQ(out_dims.y, dims.y);
  ASSERT_EQ(out_dims.z, dims.z);
  ASSERT_EQ(recon.size(), dims.total());
}

TEST(GoldenStreams, LegacyV2Pwe3dStillDecodes) {
  const Dims dims{33, 17, 9};
  const auto field = data::miranda_pressure(dims, 7);
  std::vector<double> recon;
  check_legacy_v2("pwe_3d_v2.sperr", dims, recon);
  for (size_t i = 0; i < recon.size(); ++i)
    ASSERT_LE(std::fabs(field[i] - recon[i]), 0.02) << "index " << i;
}

TEST(GoldenStreams, LegacyV2Pwe2dStillDecodes) {
  const Dims dims{48, 37, 1};
  const auto field = data::lighthouse_2d(dims, 11);
  std::vector<double> recon;
  check_legacy_v2("pwe_2d_v2.sperr", dims, recon);
  for (size_t i = 0; i < recon.size(); ++i)
    ASSERT_LE(std::fabs(field[i] - recon[i]), 0.005) << "index " << i;
}

TEST(GoldenStreams, LegacyV2FixedRateStillDecodes) {
  const Dims dims{32, 32, 16};
  const auto field = data::nyx_dark_matter_density(dims, 3);
  std::vector<double> recon;
  check_legacy_v2("rate_3d_v2.sperr", dims, recon);
  for (size_t i = 0; i < recon.size(); ++i)
    ASSERT_TRUE(std::isfinite(recon[i])) << "index " << i;
}

TEST(GoldenStreams, SynthesizedV1StillDecodes) {
  // No v1 fixture was ever committed (v1 predates the golden harness), so
  // build one in-test: encode fresh, then rewrite the container in the v1
  // layout — 16-byte directory entries, no checksums, plain (non-lossless)
  // outer wrapper with version byte 1.
  const Dims dims{30, 22, 5};
  const auto field = data::miranda_pressure(dims, 13);
  Config cfg;
  cfg.mode = Mode::pwe;
  cfg.tolerance = 0.01;
  cfg.lossless_pass = false;
  const auto blob = compress(field.data(), dims, cfg);

  std::vector<uint8_t> inner;
  ContainerHeader hdr;
  size_t payload_pos = 0;
  ASSERT_EQ(open_container(blob.data(), blob.size(), inner, hdr, &payload_pos),
            Status::ok);

  std::vector<uint8_t> v1_inner;
  put_u32(v1_inner, ContainerHeader::kInnerMagic);
  put_u8(v1_inner, uint8_t(hdr.mode));
  put_u8(v1_inner, hdr.precision);
  put_u64(v1_inner, hdr.dims.x);
  put_u64(v1_inner, hdr.dims.y);
  put_u64(v1_inner, hdr.dims.z);
  put_u64(v1_inner, hdr.chunk_dims.x);
  put_u64(v1_inner, hdr.chunk_dims.y);
  put_u64(v1_inner, hdr.chunk_dims.z);
  put_f64(v1_inner, hdr.quality);
  put_u32(v1_inner, uint32_t(hdr.entries.size()));
  for (const ChunkEntry& e : hdr.entries) {
    put_u64(v1_inner, e.speck_len);
    put_u64(v1_inner, e.outlier_len);
  }
  v1_inner.insert(v1_inner.end(), inner.begin() + ptrdiff_t(payload_pos),
                  inner.end());

  std::vector<uint8_t> v1_blob;
  put_u32(v1_blob, ContainerHeader::kOuterMagic);
  put_u8(v1_blob, 1);  // version
  put_u8(v1_blob, 0);  // no lossless pass
  put_u64(v1_blob, v1_inner.size());
  v1_blob.insert(v1_blob.end(), v1_inner.begin(), v1_inner.end());

  std::vector<double> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(v1_blob.data(), v1_blob.size(), recon, out_dims), Status::ok);
  ASSERT_EQ(recon.size(), dims.total());
  for (size_t i = 0; i < recon.size(); ++i)
    ASSERT_LE(std::fabs(field[i] - recon[i]), cfg.tolerance) << "index " << i;
}

}  // namespace
}  // namespace sperr
