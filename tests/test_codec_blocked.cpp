// Block-parallel lossless codec: differential equivalence against the
// reference single-block codec, block framing/independence contracts, and
// per-block corruption reporting.

#include "lossless/codec.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "common/checksum.h"
#include "common/rng.h"
#include "oracle/oracle.h"

namespace sperr::lossless {
namespace {

constexpr size_t kSmallBlock = size_t(1) << 12;  // codec minimum, forces many blocks

std::vector<uint8_t> compressible_blob(size_t n, uint32_t seed) {
  // Repetitive text with a sprinkle of noise: compresses well but not
  // degenerately, so multi-block streams stay in kModeLz.
  Rng rng(seed);
  std::string text;
  while (text.size() < n) {
    text += "the quick brown fox jumps over the lazy dog. ";
    if (rng.below(4) == 0) text += char('a' + rng.below(26));
  }
  text.resize(n);
  return {text.begin(), text.end()};
}

std::vector<uint8_t> random_blob(size_t n, uint32_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> b(n);
  for (auto& v : b) v = uint8_t(rng.next());
  return b;
}

// --- differential: blocked and reference codecs are equivalence oracles ----

TEST(CodecBlocked, DifferentialAgainstReferenceCodec) {
  const std::vector<std::vector<uint8_t>> inputs = {
      {},
      {42},
      compressible_blob(100, 1),
      compressible_blob(3 * kSmallBlock + 17, 2),
      random_blob(2 * kSmallBlock + 5, 3),
  };
  for (const auto& input : inputs) {
    const auto blocked = compress(input, {kSmallBlock, 0});
    const auto reference = encode_reference(input);
    std::vector<uint8_t> from_blocked, from_reference;
    ASSERT_EQ(decompress(blocked, from_blocked), Status::ok);
    ASSERT_EQ(decode_reference(reference.data(), reference.size(), from_reference),
              Status::ok);
    EXPECT_EQ(from_blocked, input);
    EXPECT_EQ(from_reference, input);
    EXPECT_EQ(from_blocked, from_reference);
  }
}

TEST(CodecBlocked, DecompressDispatchesOnReferenceFraming) {
  const auto input = compressible_blob(5000, 4);
  const auto reference = encode_reference(input);
  std::vector<uint8_t> out;
  ASSERT_EQ(decompress(reference, out), Status::ok);  // auto-detects old framing
  EXPECT_EQ(out, input);
}

// --- framing -----------------------------------------------------------------

TEST(CodecBlocked, EmptyInputIsHeaderOnlyStream) {
  const auto packed = compress(std::vector<uint8_t>{});
  StreamInfo info;
  ASSERT_EQ(inspect(packed.data(), packed.size(), info), Status::ok);
  EXPECT_TRUE(info.blocked);
  EXPECT_EQ(info.raw_size, 0u);
  EXPECT_TRUE(info.blocks.empty());
  std::vector<uint8_t> out{1, 2, 3};
  ASSERT_EQ(decompress(packed, out), Status::ok);
  EXPECT_TRUE(out.empty());
}

TEST(CodecBlocked, InputSmallerThanOneBlockIsSingleBlock) {
  const auto input = compressible_blob(100, 5);
  const auto packed = compress(input);  // default 1 MiB blocks
  StreamInfo info;
  ASSERT_EQ(inspect(packed.data(), packed.size(), info), Status::ok);
  ASSERT_EQ(info.blocks.size(), 1u);
  EXPECT_EQ(info.blocks[0].raw_size, input.size());
  EXPECT_EQ(info.blocks[0].checksum, xxhash64(input.data(), input.size()));
}

TEST(CodecBlocked, DirectoryCoversEveryBlockWithChecksums) {
  const size_t n = 3 * kSmallBlock + 123;
  const auto input = compressible_blob(n, 6);
  const auto packed = compress(input, {kSmallBlock, 0});
  StreamInfo info;
  ASSERT_EQ(inspect(packed.data(), packed.size(), info), Status::ok);
  EXPECT_EQ(info.block_size, kSmallBlock);
  EXPECT_TRUE(info.tagged);  // format 3: entropy tag lives in the directory
  ASSERT_EQ(info.blocks.size(), 4u);
  uint64_t raw_total = 0;
  for (size_t b = 0; b < info.blocks.size(); ++b) {
    const BlockInfo& bi = info.blocks[b];
    raw_total += bi.raw_size;
    EXPECT_EQ(bi.checksum,
              xxhash64(input.data() + b * kSmallBlock, size_t(bi.raw_size)));
    // The tag round-trips through the packed directory word at 18 + 12*b.
    const size_t entry = 18 + 12 * b;
    const uint32_t word = uint32_t(packed[entry]) | (uint32_t(packed[entry + 1]) << 8) |
                          (uint32_t(packed[entry + 2]) << 16) |
                          (uint32_t(packed[entry + 3]) << 24);
    EXPECT_EQ(bi.mode, uint8_t(word >> 30));
    EXPECT_EQ(bi.comp_size, word & ((uint32_t(1) << 30) - 1));
  }
  EXPECT_EQ(raw_total, input.size());
}

TEST(CodecBlocked, IncompressibleBlocksStoreRawPerBlock) {
  // Random halves force raw storage; a compressible half gets entropy
  // coding — the selection is per block, not per stream.
  auto input = random_blob(2 * kSmallBlock, 7);
  const auto tail = compressible_blob(kSmallBlock, 8);
  input.insert(input.end(), tail.begin(), tail.end());
  const auto packed = compress(input, {kSmallBlock, 0});
  StreamInfo info;
  ASSERT_EQ(inspect(packed.data(), packed.size(), info), Status::ok);
  ASSERT_EQ(info.blocks.size(), 3u);
  EXPECT_EQ(info.blocks[0].mode, kEntropyRaw);
  EXPECT_EQ(info.blocks[1].mode, kEntropyRaw);
  EXPECT_NE(info.blocks[2].mode, kEntropyRaw);  // Huffman or arithmetic
  // A raw block costs exactly its size: format 3 has no per-payload byte.
  EXPECT_EQ(info.blocks[0].comp_size, kSmallBlock);
  std::vector<uint8_t> out;
  ASSERT_EQ(decompress(packed, out), Status::ok);
  EXPECT_EQ(out, input);
}

TEST(CodecBlocked, MatchesNeverSpanBlockBoundaries) {
  // Highly repetitive data maximizes the temptation to match across the
  // boundary. If blocks are truly independent, block b of an N-block stream
  // is byte-identical to block 0 of compressing that slice alone.
  std::vector<uint8_t> input;
  for (size_t i = 0; i < 2 * kSmallBlock; ++i) input.push_back(uint8_t(i % 251));
  const auto packed = compress(input, {kSmallBlock, 0});
  StreamInfo info;
  ASSERT_EQ(inspect(packed.data(), packed.size(), info), Status::ok);
  ASSERT_EQ(info.blocks.size(), 2u);

  const std::vector<uint8_t> second_half(input.begin() + long(kSmallBlock), input.end());
  const auto alone = compress(second_half, {kSmallBlock, 0});
  StreamInfo alone_info;
  ASSERT_EQ(inspect(alone.data(), alone.size(), alone_info), Status::ok);
  ASSERT_EQ(alone_info.blocks.size(), 1u);

  const BlockInfo& in_stream = info.blocks[1];
  const BlockInfo& standalone = alone_info.blocks[0];
  ASSERT_EQ(in_stream.comp_size, standalone.comp_size);
  EXPECT_TRUE(std::equal(packed.begin() + long(in_stream.offset),
                         packed.begin() + long(in_stream.offset) + in_stream.comp_size,
                         alone.begin() + long(standalone.offset)));
}

// --- corruption reporting ----------------------------------------------------

TEST(CodecBlocked, FlippedPayloadBitReportsTheCorruptBlock) {
  const auto input = compressible_blob(4 * kSmallBlock, 9);
  auto packed = compress(input, {kSmallBlock, 0});
  StreamInfo info;
  ASSERT_EQ(inspect(packed.data(), packed.size(), info), Status::ok);
  ASSERT_EQ(info.blocks.size(), 4u);

  for (size_t victim = 0; victim < 4; ++victim) {
    auto corrupted = packed;
    // Flip one bit in the middle of the victim block's payload.
    const size_t at = size_t(info.blocks[victim].offset) +
                      info.blocks[victim].comp_size / 2;
    corrupted[at] ^= 0x10;
    std::vector<uint8_t> out;
    size_t bad = SIZE_MAX;
    EXPECT_EQ(decompress(corrupted.data(), corrupted.size(), out, &bad),
              Status::corrupt_block);
    EXPECT_EQ(bad, victim);
  }
}

TEST(CodecBlocked, FlippedDirectoryChecksumReportsTheBlock) {
  const auto input = compressible_blob(2 * kSmallBlock, 10);
  auto packed = compress(input, {kSmallBlock, 0});
  StreamInfo info;
  ASSERT_EQ(inspect(packed.data(), packed.size(), info), Status::ok);
  // Directory entry b sits at 18 + 12*b: comp_size(u32) then checksum(u64).
  packed[18 + 12 * 1 + 4] ^= 0xff;  // second block's checksum
  std::vector<uint8_t> out;
  size_t bad = SIZE_MAX;
  EXPECT_EQ(decompress(packed.data(), packed.size(), out, &bad),
            Status::corrupt_block);
  EXPECT_EQ(bad, 1u);
}

TEST(CodecBlocked, TruncationIsAFramingErrorNotACrash) {
  const auto input = compressible_blob(3 * kSmallBlock, 11);
  auto packed = compress(input, {kSmallBlock, 0});
  for (const size_t keep : {size_t(0), size_t(1), size_t(10), size_t(17),
                            size_t(30), packed.size() / 2, packed.size() - 1}) {
    std::vector<uint8_t> cut(packed.begin(), packed.begin() + long(keep));
    std::vector<uint8_t> out;
    EXPECT_NE(decompress(cut.data(), cut.size(), out), Status::ok);
  }
}

TEST(CodecBlocked, BlockSizeIsClampedToTheSupportedRange) {
  const auto input = compressible_blob(10000, 12);
  const auto packed = compress(input, {1, 0});  // absurdly small, clamped to 4 KiB
  StreamInfo info;
  ASSERT_EQ(inspect(packed.data(), packed.size(), info), Status::ok);
  EXPECT_EQ(info.block_size, size_t(1) << 12);
  std::vector<uint8_t> out;
  ASSERT_EQ(decompress(packed, out), Status::ok);
  EXPECT_EQ(out, input);
}

TEST(CodecBlocked, BlockSizeClampIsTheOneTheStreamRecords) {
  EXPECT_EQ(clamp_block_size(1), kMinBlockSize);
  EXPECT_EQ(clamp_block_size(size_t(1) << 20), size_t(1) << 20);
  EXPECT_EQ(clamp_block_size(size_t(1) << 31), size_t(1) << 28);
  const auto packed = compress(compressible_blob(100, 14), {size_t(1) << 31, 0});
  StreamInfo info;
  ASSERT_EQ(inspect(packed.data(), packed.size(), info), Status::ok);
  EXPECT_EQ(info.block_size, clamp_block_size(size_t(1) << 31));
}

// --- strict and tolerant decoding agree --------------------------------------

/// The lossless payload of a golden v2 container: format 2, past the 14-byte
/// outer wrapper (magic, version, lossless flag, payload length).
std::vector<uint8_t> golden_v2_payload(const std::string& name) {
  std::ifstream in(std::string(GOLDEN_DIR) + "/" + name, std::ios::binary);
  const std::vector<uint8_t> file(std::istreambuf_iterator<char>(in), {});
  if (file.size() < 14) return {};
  return {file.begin() + 14, file.end()};
}

/// Decode `stream` both ways and require one verdict: the same status (the
/// tolerant path maps any block failure to corrupt_block too), strict's
/// corrupt block is tolerant's first bad block, and a clean stream decodes
/// to the same bytes.
void expect_strict_tolerant_agree(const std::vector<uint8_t>& stream,
                                  const std::string& what) {
  std::vector<uint8_t> strict_out, tolerant_out;
  size_t bad = SIZE_MAX;
  std::vector<size_t> bad_blocks;
  const Status strict = decompress(stream.data(), stream.size(), strict_out, &bad);
  const Status tolerant =
      decompress_tolerant(stream.data(), stream.size(), tolerant_out, bad_blocks);
  EXPECT_EQ(strict, tolerant) << what;
  if (strict == Status::ok) {
    EXPECT_EQ(strict_out, tolerant_out) << what;
  } else if (strict == Status::corrupt_block) {
    ASSERT_FALSE(bad_blocks.empty()) << what;
    EXPECT_EQ(bad, bad_blocks.front()) << what;
  } else {
    EXPECT_TRUE(bad_blocks.empty()) << what;
  }
}

/// Flip bits across every block payload of a blocked stream; each flip must
/// be pinned on its own block, identically by both decoders.
void flip_block_payloads(const std::vector<uint8_t>& stream, const std::string& what) {
  StreamInfo info;
  ASSERT_EQ(inspect(stream.data(), stream.size(), info), Status::ok) << what;
  ASSERT_TRUE(info.blocked) << what;
  expect_strict_tolerant_agree(stream, what + " clean");
  for (size_t b = 0; b < info.blocks.size(); ++b) {
    const BlockInfo& bi = info.blocks[b];
    for (size_t k = 0; k < 8; ++k) {
      auto bad = stream;
      const size_t at = size_t(bi.offset) + k * bi.comp_size / 8;
      bad[at] ^= uint8_t(1u << k);
      const std::string where = what + " block " + std::to_string(b) + " byte " +
                                std::to_string(at);
      std::vector<uint8_t> out;
      size_t victim = SIZE_MAX;
      EXPECT_EQ(decompress(bad.data(), bad.size(), out, &victim), Status::corrupt_block)
          << where;
      EXPECT_EQ(victim, b) << where;
      expect_strict_tolerant_agree(bad, where);
    }
  }
}

TEST(CodecBlocked, StrictAndTolerantAgreeOnFormat2) {
  for (const char* name : {"pwe_3d_v2.sperr", "pwe_2d_v2.sperr", "rate_3d_v2.sperr"}) {
    const auto payload = golden_v2_payload(name);
    ASSERT_FALSE(payload.empty()) << name;
    ASSERT_EQ(payload[0], 2) << name;  // format 2: mode byte leads each payload
    flip_block_payloads(payload, name);
  }
}

TEST(CodecBlocked, StrictAndTolerantAgreeOnFormat3) {
  std::vector<uint8_t> mixed = compressible_blob(3 * kSmallBlock, 15);
  const auto noise = random_blob(kSmallBlock, 16);  // a raw-tagged block
  mixed.insert(mixed.begin() + long(kSmallBlock), noise.begin(), noise.end());
  flip_block_payloads(compress(mixed, {kSmallBlock, 0}), "format 3");
}

TEST(CodecBlocked, StrictAndTolerantAgreeOnTheLegacyFormat) {
  const auto reference = encode_reference(compressible_blob(3 * kSmallBlock, 17));
  ASSERT_EQ(reference[0], 1);  // kModeLz: the token body, not a raw copy
  expect_strict_tolerant_agree(reference, "legacy clean");
  for (size_t at = 9; at < reference.size(); at += reference.size() / 64 + 1) {
    auto bad = reference;
    bad[at] ^= 0x04;
    expect_strict_tolerant_agree(bad, "legacy byte " + std::to_string(at));
  }
}

TEST(CodecBlocked, TruncatedLegacyStreamsAreRejected) {
  // Each cut lives in an exactly sized buffer, so a sanitizer build flags
  // any read past the input.
  for (const auto& input :
       {compressible_blob(2 * kSmallBlock, 18), random_blob(300, 19)}) {
    const auto reference = encode_reference(input);
    for (size_t keep = 0; keep < reference.size(); keep += reference.size() / 97 + 1) {
      const std::vector<uint8_t> cut(reference.begin(), reference.begin() + long(keep));
      std::vector<uint8_t> out;
      const Status s = decode_reference(cut.data(), cut.size(), out);
      // Shorter than the 9-byte header is unreadable; past it, a cut anywhere
      // (code lengths, token stream, raw bytes) reads as truncation.
      EXPECT_EQ(s, keep < 9 ? Status::corrupt_stream : Status::truncated_stream)
          << "mode " << int(reference[0]) << " keep " << keep;
      expect_strict_tolerant_agree(cut, "legacy cut " + std::to_string(keep));
    }
  }
}

TEST(CodecBlocked, ExplicitThreadCountsAgreeByteForByte) {
  const auto input = compressible_blob(5 * kSmallBlock + 7, 13);
  const auto serial = compress(input, {kSmallBlock, 1});
  const auto parallel = compress(input, {kSmallBlock, 8});
  EXPECT_EQ(serial, parallel);
  std::vector<uint8_t> out;
  ASSERT_EQ(decompress(parallel.data(), parallel.size(), out), Status::ok);
  EXPECT_EQ(out, input);
}

}  // namespace
}  // namespace sperr::lossless
