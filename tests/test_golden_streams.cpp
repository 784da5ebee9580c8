// Golden-stream regression tests: committed .sperr fixtures produced by
// sperr::compress at a pinned configuration. A fresh encode of the same
// deterministic synthetic field must reproduce the fixture byte for byte,
// and decoding the fixture must honor the mode's quality contract. Any
// unintentional change to the wavelet transform, SPECK coder, outlier
// coder, lossless back end, or container layout trips these immediately.
//
// Regenerating (after an INTENTIONAL format/coder change):
//   SPERR_GOLDEN_REGEN=1 ./test_golden  # rewrites tests/golden/*.sperr
//                                       # and pwe_idx40_field.f64
// then commit the new fixtures together with the change that motivated them.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/byteio.h"
#include "common/checksum.h"
#include "data/synthetic.h"
#include "sperr/header.h"
#include "sperr/recovery.h"
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

/// Open a container as a strict decode does, for checks of its header and
/// chunk slices.
Status open_strict(const std::vector<uint8_t>& blob, detail::OpenedContainer& oc) {
  return detail::open_tolerant(blob.data(), blob.size(), Recovery::fail_fast, oc,
                               nullptr);
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
  cfg.chunk_dims = Dims{256, 256, 256};  // the header records the preferred extents
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
  cfg.chunk_dims = Dims{256, 256, 256};
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
  cfg.chunk_dims = Dims{256, 256, 256};
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

  detail::OpenedContainer oc;
  ASSERT_EQ(open_strict(golden, oc), Status::ok);
  const ContainerHeader& hdr = oc.hdr;
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

TEST(GoldenStreams, PweF32MultiChunk) {
  // Outliers located in chunks at non-zero origins, against the
  // reconstruction both as doubles and rounded to float: the tolerance is
  // below the float spacing of the field's larger values, so some chunk
  // finds float-only outliers and codes its corrections at step t/2.
  const Dims dims{40, 26, 18};  // 16^3 chunks: a 3 x 2 x 1 grid of unequal chunks
  const auto wide = data::miranda_pressure(dims, 9);
  const std::vector<float> field(wide.begin(), wide.end());
  Config cfg;
  cfg.mode = Mode::pwe;
  cfg.tolerance = 0.05;
  cfg.chunk_dims = Dims{16, 16, 16};
  Stats stats;
  const auto golden = check_bytes("pwe_f32_multichunk.sperr",
                                  compress(field.data(), dims, cfg, &stats));
  ASSERT_FALSE(HasFailure());
  EXPECT_GT(stats.num_outliers, 0u);

  detail::OpenedContainer oc;
  ASSERT_EQ(open_strict(golden, oc), Status::ok);
  EXPECT_EQ(oc.hdr.precision, 4u);
  EXPECT_EQ(oc.hdr.quality, cfg.tolerance);
  ASSERT_EQ(oc.slices.size(), 6u);
  size_t halved = 0;  // chunks whose outlier stream carries step t/2
  for (const detail::ChunkSlice& sl : oc.slices) {
    if (sl.outlier_avail != 0) {
      ByteReader br(oc.inner.data() + sl.offset + sl.speck_avail + 2,
                    sl.outlier_avail - 2);  // past the magic
      halved += br.f64() == cfg.tolerance / 2;
    }
  }
  EXPECT_GT(halved, 0u);

  std::vector<float> recon32;
  std::vector<double> recon64;
  Dims d32, d64;
  ASSERT_EQ(decompress(golden.data(), golden.size(), recon32, d32), Status::ok);
  ASSERT_EQ(decompress(golden.data(), golden.size(), recon64, d64), Status::ok);
  ASSERT_EQ(d32, dims);
  ASSERT_EQ(d64, dims);
  for (size_t i = 0; i < field.size(); ++i) {
    ASSERT_LE(std::fabs(double(field[i]) - double(recon32[i])), cfg.tolerance)
        << "f32 decode, index " << i;
    ASSERT_LE(std::fabs(double(field[i]) - recon64[i]), cfg.tolerance)
        << "f64 decode, index " << i;
  }
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

  detail::OpenedContainer oc;
  ASSERT_EQ(open_strict(golden, oc), Status::ok);
  EXPECT_EQ(oc.hdr.quality, 1.5);
  EXPECT_EQ(oc.hdr.entries.size(), 4u);
  EXPECT_LT(double(golden.size()) * 8.0 / double(dims.total()), 1.5 * 1.25);

  std::vector<double> recon;
  Dims out_dims;
  ASSERT_EQ(decompress(golden.data(), golden.size(), recon, out_dims), Status::ok);
  ASSERT_EQ(out_dims, dims);
  for (size_t i = 0; i < recon.size(); ++i)
    ASSERT_TRUE(std::isfinite(recon[i])) << "index " << i;
}

// ---- The PWE bound at a tight tolerance, from a stored field ---------------
// At idx 40 (t = range * 2^-40) the locate stage decides outliers on the
// last bits of the reconstruction, so a decoder whose arithmetic differs
// from the encoder's (another build's flags, say) breaks the bound first
// here. The original field is stored beside the container rather than
// regenerated, so every build checks the committed bytes against the same
// values.

TEST(GoldenStreams, PweIdx40StoredField) {
  const Dims dims{16, 16, 16};
  const std::string field_path = golden_path("pwe_idx40_field.f64");
  if (regen_requested()) {
    const auto f = data::miranda_pressure(dims, 17);
    std::vector<uint8_t> bytes(f.size() * sizeof(double));
    std::memcpy(bytes.data(), f.data(), bytes.size());
    write_file(field_path, bytes);
  }
  const auto bytes = read_file(field_path);
  ASSERT_EQ(bytes.size(), dims.total() * sizeof(double)) << field_path;
  std::vector<double> field(dims.total());
  std::memcpy(field.data(), bytes.data(), bytes.size());

  Config cfg;
  cfg.mode = Mode::pwe;
  cfg.tolerance = tolerance_from_idx(field.data(), field.size(), 40);
  cfg.chunk_dims = Dims{256, 256, 256};
  Stats stats;
  // A byte mismatch does not stop the test: the committed bytes are then
  // decoded by a build that did not make them, and the bound still holds.
  const auto golden = check_bytes("pwe_idx40.sperr",
                                  compress(field.data(), dims, cfg, &stats));
  EXPECT_GT(stats.num_outliers, 0u);

  std::vector<double> recon64;
  std::vector<float> recon32;
  Dims d64, d32;
  ASSERT_EQ(decompress(golden.data(), golden.size(), recon64, d64), Status::ok);
  ASSERT_EQ(decompress(golden.data(), golden.size(), recon32, d32), Status::ok);
  ASSERT_EQ(d64, dims);
  ASSERT_EQ(d32, dims);
  const double t = cfg.tolerance;
  for (size_t i = 0; i < field.size(); ++i) {
    ASSERT_LE(std::fabs(field[i] - recon64[i]), t) << "f64 decode, index " << i;
    // t is far below the float spacing of these values (about 1e6), so an
    // f64 container's float decode is the f64 decode rounded to float, and
    // within t plus half that spacing of the original.
    ASSERT_EQ(recon32[i], float(recon64[i])) << "f32 decode, index " << i;
    const double half_ulp =
        (double(std::nextafter(recon32[i], INFINITY)) - double(recon32[i])) / 2;
    ASSERT_LE(std::fabs(field[i] - double(recon32[i])), t + half_ulp)
        << "f32 decode, index " << i;
  }
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

  detail::OpenedContainer oc;
  ASSERT_EQ(open_strict(blob, oc), Status::ok);
  const ContainerHeader& hdr = oc.hdr;

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
  v1_inner.insert(v1_inner.end(), oc.inner.begin() + ptrdiff_t(oc.slices[0].offset),
                  oc.inner.end());

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

// ---- Multi-resolution reads of the single-chunk fixtures -------------------
// decompress_lowres of a one-chunk container is pinned bit for bit: XXH64
// over the coarse extents and the coarse doubles, at drops 1, 2 and 99 (a
// drop past the level plan clamps to the final corner).

TEST(GoldenStreams, LowresSingleChunkPinned) {
  struct Pin {
    const char* name;
    size_t drop;
    uint64_t hash;
  };
  const Pin pins[] = {
      {"pwe_3d.sperr", 1, 0x73806cd19aa25408},
      {"pwe_3d.sperr", 2, 0x003ddc87166de8d9},
      {"pwe_3d.sperr", 99, 0x4c9cc7aff4aca0f8},
      {"rate_3d.sperr", 1, 0x4f080ac0d8cac8b2},
      {"rate_3d.sperr", 2, 0xeeeab0b315084170},
      {"rate_3d.sperr", 99, 0xbcf1899f18562d3c},
      {"pwe_2d.sperr", 1, 0xc8555619fe409f02},
      {"pwe_2d.sperr", 2, 0x937148f00083a6d7},
      {"pwe_2d.sperr", 99, 0x286de61b43e10888},
      // A v2 container of the same field decodes to the same coarse values.
      {"pwe_3d_v2.sperr", 1, 0x73806cd19aa25408},
      {"rate_3d_v2.sperr", 2, 0xeeeab0b315084170},
      {"pwe_2d_v2.sperr", 99, 0x286de61b43e10888},
  };
  for (const Pin& p : pins) {
    const auto golden = read_file(golden_path(p.name));
    ASSERT_FALSE(golden.empty()) << p.name;
    std::vector<double> coarse;
    Dims cd;
    ASSERT_EQ(decompress_lowres(golden.data(), golden.size(), p.drop, coarse, cd),
              Status::ok)
        << p.name << " drop " << p.drop;
    ASSERT_EQ(coarse.size(), cd.total());
    const uint64_t extents[3] = {cd.x, cd.y, cd.z};
    const uint64_t h = xxhash64(coarse.data(), coarse.size() * sizeof(double),
                                xxhash64(extents, sizeof(extents)));
    EXPECT_EQ(h, p.hash) << p.name << " drop " << p.drop;
  }
}

}  // namespace
}  // namespace sperr
