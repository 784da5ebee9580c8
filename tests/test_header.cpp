#include "sperr/header.h"

#include <gtest/gtest.h>

#include "common/byteio.h"

namespace sperr {
namespace {

ContainerHeader sample_header() {
  ContainerHeader hdr;
  hdr.mode = Mode::pwe;
  hdr.precision = 4;
  hdr.dims = Dims{384, 384, 256};
  hdr.chunk_dims = Dims{256, 256, 256};
  hdr.quality = 3.64e-11;
  hdr.entries = {ChunkEntry(1000, 50), ChunkEntry(2000, 0), ChunkEntry(0, 10)};
  hdr.entries[0].checksum = 0x0123456789abcdefULL;
  hdr.entries[0].mean = -3.75;
  hdr.entries[1].checksum = 0xfeedfacecafef00dULL;
  hdr.entries[1].mean = 1e20;
  return hdr;
}

TEST(ContainerHeader, RoundTrip) {
  const ContainerHeader hdr = sample_header();
  std::vector<uint8_t> buf;
  hdr.serialize(buf);

  ByteReader br(buf.data(), buf.size());
  ContainerHeader parsed;
  ASSERT_EQ(parsed.deserialize(br), Status::ok);
  EXPECT_EQ(parsed.mode, hdr.mode);
  EXPECT_EQ(parsed.precision, hdr.precision);
  EXPECT_EQ(parsed.dims, hdr.dims);
  EXPECT_EQ(parsed.chunk_dims, hdr.chunk_dims);
  EXPECT_DOUBLE_EQ(parsed.quality, hdr.quality);
  EXPECT_EQ(parsed.entries, hdr.entries);
  EXPECT_EQ(parsed.version, ContainerHeader::kVersion);
  EXPECT_TRUE(parsed.has_integrity());
}

TEST(ContainerHeader, SelfChecksumCatchesDirectoryDamage) {
  const ContainerHeader hdr = sample_header();
  std::vector<uint8_t> buf;
  hdr.serialize(buf);
  // Flip one byte inside the directory (after the fixed fields, before the
  // trailing self-checksum): the lengths would mis-slice the payload, so the
  // parse must fail loudly instead.
  const size_t fixed = 4 + 1 + 1 + 6 * 8 + 8 + 4;
  for (const size_t at : {fixed + 3, fixed + 20, buf.size() - 16}) {
    auto bad = buf;
    bad[at] ^= 0x10;
    ByteReader br(bad.data(), bad.size());
    ContainerHeader parsed;
    EXPECT_EQ(parsed.deserialize(br), Status::corrupt_stream) << "byte " << at;
  }
}

TEST(ContainerHeader, ParsesLegacyV2Layout) {
  // Hand-build a v2 header: same fixed fields, 16-byte directory entries,
  // no self-checksum.
  const ContainerHeader hdr = sample_header();
  std::vector<uint8_t> buf;
  put_u32(buf, ContainerHeader::kInnerMagic);
  put_u8(buf, uint8_t(hdr.mode));
  put_u8(buf, hdr.precision);
  put_u64(buf, hdr.dims.x);
  put_u64(buf, hdr.dims.y);
  put_u64(buf, hdr.dims.z);
  put_u64(buf, hdr.chunk_dims.x);
  put_u64(buf, hdr.chunk_dims.y);
  put_u64(buf, hdr.chunk_dims.z);
  put_f64(buf, hdr.quality);
  put_u32(buf, uint32_t(hdr.entries.size()));
  for (const ChunkEntry& e : hdr.entries) {
    put_u64(buf, e.speck_len);
    put_u64(buf, e.outlier_len);
  }

  ByteReader br(buf.data(), buf.size());
  ContainerHeader parsed;
  ASSERT_EQ(parsed.deserialize(br, 2), Status::ok);
  EXPECT_EQ(parsed.version, 2);
  EXPECT_FALSE(parsed.has_integrity());
  ASSERT_EQ(parsed.entries.size(), hdr.entries.size());
  for (size_t i = 0; i < hdr.entries.size(); ++i) {
    EXPECT_EQ(parsed.entries[i].speck_len, hdr.entries[i].speck_len);
    EXPECT_EQ(parsed.entries[i].outlier_len, hdr.entries[i].outlier_len);
    EXPECT_EQ(parsed.entries[i].checksum, 0u);  // absent in v2
  }
}

TEST(ContainerHeader, RejectsBadMagic) {
  auto hdr = sample_header();
  std::vector<uint8_t> buf;
  hdr.serialize(buf);
  buf[0] ^= 0xff;
  ByteReader br(buf.data(), buf.size());
  ContainerHeader parsed;
  EXPECT_EQ(parsed.deserialize(br), Status::corrupt_stream);
}

TEST(ContainerHeader, RejectsBadMode) {
  auto hdr = sample_header();
  std::vector<uint8_t> buf;
  hdr.serialize(buf);
  buf[4] = 99;  // mode byte
  ByteReader br(buf.data(), buf.size());
  ContainerHeader parsed;
  EXPECT_EQ(parsed.deserialize(br), Status::corrupt_stream);
}

TEST(ContainerHeader, RejectsBadPrecision) {
  auto hdr = sample_header();
  std::vector<uint8_t> buf;
  hdr.serialize(buf);
  buf[5] = 3;  // precision byte
  ByteReader br(buf.data(), buf.size());
  ContainerHeader parsed;
  EXPECT_EQ(parsed.deserialize(br), Status::corrupt_stream);
}

TEST(ContainerHeader, RejectsImplausibleExtents) {
  auto hdr = sample_header();
  hdr.dims = Dims{size_t(1) << 40, 1, 1};  // beyond kMaxAxisExtent
  std::vector<uint8_t> buf;
  hdr.serialize(buf);
  ByteReader br(buf.data(), buf.size());
  ContainerHeader parsed;
  EXPECT_EQ(parsed.deserialize(br), Status::corrupt_stream);
}

TEST(ContainerHeader, RejectsChunkBeyondSpeckLimitBeforeDirectory) {
  // No encoder writes a chunk of 2^31 voxels (speck::kMaxCoefficients), so
  // a header declaring one is corrupt — refused before the directory is
  // allocated.
  auto hdr = sample_header();
  hdr.dims = Dims{2048, 1024, 1024};
  hdr.chunk_dims = hdr.dims;
  std::vector<uint8_t> buf;
  hdr.serialize(buf);
  ByteReader br(buf.data(), buf.size());
  ContainerHeader parsed;
  EXPECT_EQ(parsed.deserialize(br), Status::corrupt_stream);
  EXPECT_EQ(parsed.entries.capacity(), 0u);

  // Half the chunk (2^30 voxels) is a legal header.
  hdr.chunk_dims = Dims{2048, 1024, 512};
  buf.clear();
  hdr.serialize(buf);
  ByteReader ok(buf.data(), buf.size());
  EXPECT_EQ(parsed.deserialize(ok), Status::ok);
}

TEST(ContainerHeader, RejectsTruncation) {
  auto hdr = sample_header();
  std::vector<uint8_t> buf;
  hdr.serialize(buf);
  for (const size_t keep : {0u, 3u, 10u, 40u, 70u}) {
    ByteReader br(buf.data(), std::min<size_t>(keep, buf.size()));
    ContainerHeader parsed;
    EXPECT_NE(parsed.deserialize(br), Status::ok) << "kept " << keep;
  }
}

TEST(Wrapper, RoundTripBothModes) {
  std::vector<uint8_t> payload(5000);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = uint8_t(i % 7);
  for (const bool lossless : {false, true}) {
    const auto wrapped = wrap_container(payload, lossless);
    std::vector<uint8_t> inner;
    ASSERT_EQ(unwrap_container(wrapped.data(), wrapped.size(), inner), Status::ok);
    EXPECT_EQ(inner, payload);
  }
}

TEST(Wrapper, LosslessPassShrinksRedundantPayload) {
  std::vector<uint8_t> payload(50000, 0xaa);
  const auto raw = wrap_container(payload, false);
  const auto packed = wrap_container(payload, true);
  EXPECT_LT(packed.size(), raw.size() / 10);
}

TEST(Wrapper, RejectsWrongVersion) {
  const auto wrapped = wrap_container({1, 2, 3}, false);
  auto bad = wrapped;
  bad[4] = 0x7f;  // version byte
  std::vector<uint8_t> inner;
  EXPECT_EQ(unwrap_container(bad.data(), bad.size(), inner),
            Status::corrupt_stream);
}

}  // namespace
}  // namespace sperr
