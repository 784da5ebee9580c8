// Arithmetic entropy path: range coder round trips, static-model
// normalization invariants, cost-model bounds, per-block entropy-tag
// selection through the public codec API, and corruption attribution for
// arithmetic blocks.

#include "lossless/arith.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "oracle/oracle.h"
#include "lossless/codec.h"

namespace sperr::lossless {
namespace {

// --- coder -------------------------------------------------------------------

TEST(ArithCoder, RoundTripsSymbolStreamUnderSkewedModel) {
  for (const uint64_t seed : {1u, 7u, 1234u}) {
    Rng rng(seed);
    constexpr size_t kAlphabet = 17;
    uint64_t freq[kAlphabet] = {};
    for (size_t s = 0; s < kAlphabet; ++s) freq[s] = 1 + rng.below(1000);
    freq[0] += 50000;  // heavy skew: exercises sub-bit symbols
    uint16_t norm[kAlphabet];
    ASSERT_EQ(arith_normalize(freq, kAlphabet, norm), kAlphabet);
    ArithCumTable table;
    ASSERT_TRUE(table.build(norm, kAlphabet, /*want_slots=*/true));

    std::vector<uint16_t> symbols(20000);
    for (auto& s : symbols) {
      const uint32_t t = rng.below(kArithTotal);
      s = table.slot[t];  // draw from the model itself
    }

    std::vector<uint8_t> bytes;
    ArithEncoder enc(bytes);
    for (const uint16_t s : symbols)
      enc.encode(table.cum[s], table.cum[s + 1], kArithTotalBits);
    enc.finish();

    ArithDecoder dec(bytes.data(), bytes.size());
    for (const uint16_t want : symbols) {
      const uint32_t got = table.slot[dec.decode_target(kArithTotalBits)];
      ASSERT_EQ(got, want);
      dec.consume(table.cum[got], table.cum[got + 1], kArithTotalBits);
    }
    EXPECT_FALSE(dec.overrun());
  }
}

TEST(ArithCoder, RawBitsInterleaveWithModeledSymbols) {
  Rng rng(99);
  constexpr size_t kAlphabet = 4;
  const uint64_t freq[kAlphabet] = {10, 20, 30, 40};
  uint16_t norm[kAlphabet];
  arith_normalize(freq, kAlphabet, norm);
  ArithCumTable table;
  ASSERT_TRUE(table.build(norm, kAlphabet, true));

  std::vector<std::pair<uint16_t, uint32_t>> events;  // (symbol, raw value)
  for (size_t i = 0; i < 5000; ++i)
    events.emplace_back(uint16_t(rng.below(kAlphabet)), uint32_t(rng.below(1u << 13)));

  std::vector<uint8_t> bytes;
  ArithEncoder enc(bytes);
  for (const auto& [sym, raw] : events) {
    enc.encode(table.cum[sym], table.cum[sym + 1], kArithTotalBits);
    enc.encode_raw(raw, 13);
    enc.encode_raw(0, 0);  // zero-width writes must be no-ops
  }
  enc.finish();

  ArithDecoder dec(bytes.data(), bytes.size());
  for (const auto& [sym, raw] : events) {
    const uint32_t got = table.slot[dec.decode_target(kArithTotalBits)];
    ASSERT_EQ(got, sym);
    dec.consume(table.cum[got], table.cum[got + 1], kArithTotalBits);
    ASSERT_EQ(dec.decode_raw(13), raw);
    ASSERT_EQ(dec.decode_raw(0), 0u);
  }
  EXPECT_FALSE(dec.overrun());
}

TEST(ArithCoder, TruncatedStreamLatchesOverrunInsteadOfCrashing) {
  std::vector<uint8_t> bytes;
  ArithEncoder enc(bytes);
  for (int i = 0; i < 1000; ++i) enc.encode_raw(uint32_t(i) & 0xFFF, 12);
  enc.finish();

  // Cut the stream far short: decoding all symbols must terminate and latch.
  ArithDecoder dec(bytes.data(), bytes.size() / 4);
  for (int i = 0; i < 1000; ++i) (void)dec.decode_raw(12);
  EXPECT_TRUE(dec.overrun());
}

// --- static model ------------------------------------------------------------

TEST(ArithModel, NormalizePreservesSupportAndSumsToTotal) {
  Rng rng(5);
  for (int round = 0; round < 50; ++round) {
    constexpr size_t n = 286;
    uint64_t freq[n] = {};
    const size_t present = 1 + rng.below(n);
    for (size_t i = 0; i < present; ++i)
      freq[rng.below(n)] = 1 + rng.below(1u << 20);

    uint16_t norm[n];
    const size_t nonzero = arith_normalize(freq, n, norm);
    uint32_t sum = 0;
    size_t support = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += norm[i];
      support += norm[i] != 0;
      EXPECT_EQ(freq[i] != 0, norm[i] != 0) << "support must be preserved";
    }
    EXPECT_EQ(sum, kArithTotal);
    EXPECT_EQ(support, nonzero);
  }
}

TEST(ArithModel, NormalizeEdgeCases) {
  uint16_t norm[8];
  const uint64_t empty[8] = {};
  EXPECT_EQ(arith_normalize(empty, 8, norm), 0u);
  for (const auto v : norm) EXPECT_EQ(v, 0);

  uint64_t single[8] = {};
  single[3] = 12345;
  EXPECT_EQ(arith_normalize(single, 8, norm), 1u);
  EXPECT_EQ(norm[3], kArithTotal);  // lone symbol owns the whole range
}

TEST(ArithModel, CumTableRejectsInconsistentSlots) {
  uint16_t norm[4] = {1000, 1000, 1000, 1096};
  ArithCumTable table;
  ASSERT_TRUE(table.build(norm, 4, true));
  EXPECT_EQ(table.cum[4], kArithTotal);
  EXPECT_EQ(table.slot.size(), size_t(kArithTotal));

  uint16_t bad[4] = {1000, 1000, 1000, 1095};  // sums to 4095
  EXPECT_FALSE(table.build(bad, 4, true));
  uint16_t over[4] = {4000, 4000, 0, 0};  // overflows mid-way
  EXPECT_FALSE(table.build(over, 4, true));

  const uint16_t unused[4] = {0, 0, 0, 0};  // legal: unused alphabet
  EXPECT_TRUE(table.build(unused, 4, true));
  EXPECT_TRUE(table.slot.empty());
}

TEST(ArithModel, CostModelUpperBoundsActualCodedSize) {
  Rng rng(11);
  constexpr size_t kAlphabet = 64;
  uint64_t freq[kAlphabet] = {};
  std::vector<uint16_t> symbols(30000);
  for (auto& s : symbols) {
    s = uint16_t(rng.below(kAlphabet));
    if (rng.below(3) != 0) s = uint16_t(s % 7);  // skew
    ++freq[s];
  }
  uint16_t norm[kAlphabet];
  arith_normalize(freq, kAlphabet, norm);
  ArithCumTable table;
  ASSERT_TRUE(table.build(norm, kAlphabet, true));

  std::vector<uint8_t> bytes;
  ArithEncoder enc(bytes);
  for (const uint16_t s : symbols)
    enc.encode(table.cum[s], table.cum[s + 1], kArithTotalBits);
  enc.finish();

  const uint64_t estimate = arith_cost_bits(freq, norm, kAlphabet);
  const uint64_t actual_bits = 8 * (bytes.size() - kArithFlushBytes);
  EXPECT_LE(actual_bits, estimate + 8) << "estimate must upper-bound the coder";
  EXPECT_GE(8 * bytes.size(), estimate / 2) << "estimate should not be wildly loose";
}

// --- codec integration -------------------------------------------------------

std::vector<uint8_t> near_uniform_blob(size_t n, uint64_t seed) {
  // iid over 200 of 256 values: almost incompressible, but Huffman's
  // integer-bit rounding leaves ~0.08 bit/byte on the table — exactly the
  // regime the arithmetic path is for.
  Rng rng(seed);
  std::vector<uint8_t> b(n);
  for (auto& v : b) v = uint8_t(rng.below(200));
  return b;
}

TEST(ArithCodec, LargeNearUniformBlocksSelectArithmeticAndRoundTrip) {
  const auto input = near_uniform_blob(size_t(1) << 18, 42);
  const auto packed = compress(input, {size_t(1) << 18, 0});
  StreamInfo info;
  ASSERT_EQ(inspect(packed.data(), packed.size(), info), Status::ok);
  ASSERT_EQ(info.blocks.size(), 1u);
  EXPECT_EQ(info.blocks[0].mode, kEntropyArith);
  EXPECT_LT(packed.size(), input.size());  // it actually pays off

  std::vector<uint8_t> out;
  ASSERT_EQ(decompress(packed, out), Status::ok);
  EXPECT_EQ(out, input);
}

TEST(ArithCodec, DifferentialAgainstReferenceAcrossEntropyRegimes) {
  // One input per entropy regime; every framing must agree byte-for-byte on
  // the decoded output.
  std::vector<std::vector<uint8_t>> inputs;
  inputs.push_back(near_uniform_blob(size_t(1) << 18, 1));  // arithmetic
  {
    std::vector<uint8_t> text;  // Huffman
    while (text.size() < (size_t(1) << 16))
      text.insert(text.end(), {'s', 'p', 'e', 'r', 'r', ' ', 'd', 'a', 't', 'a'});
    inputs.push_back(std::move(text));
  }
  {
    Rng rng(3);  // raw (fully uniform bytes never entropy-code)
    std::vector<uint8_t> noise(size_t(1) << 16);
    for (auto& v : noise) v = uint8_t(rng.next());
    inputs.push_back(std::move(noise));
  }
  inputs.push_back({});                        // empty stream
  inputs.push_back({0x5A});                    // single byte
  inputs.push_back(std::vector<uint8_t>(100, 7));  // single-symbol block

  for (const auto& input : inputs) {
    const auto blocked = compress(input, {size_t(1) << 18, 0});
    const auto reference = encode_reference(input);
    std::vector<uint8_t> from_blocked, from_reference;
    ASSERT_EQ(decompress(blocked, from_blocked), Status::ok);
    ASSERT_EQ(decode_reference(reference.data(), reference.size(), from_reference),
              Status::ok);
    EXPECT_EQ(from_blocked, input);
    EXPECT_EQ(from_reference, input);
  }
}

TEST(ArithCodec, BitFlipsInArithmeticBlockAttributeToThatBlock) {
  // Two arithmetic blocks; flip bits throughout each payload (model header,
  // body, tail) and verify the damage is pinned on the right block.
  const auto input = near_uniform_blob(size_t(1) << 19, 9);
  const auto packed = compress(input, {size_t(1) << 18, 0});
  StreamInfo info;
  ASSERT_EQ(inspect(packed.data(), packed.size(), info), Status::ok);
  ASSERT_EQ(info.blocks.size(), 2u);
  ASSERT_EQ(info.blocks[0].mode, kEntropyArith);
  ASSERT_EQ(info.blocks[1].mode, kEntropyArith);

  for (size_t victim = 0; victim < 2; ++victim) {
    const BlockInfo& bi = info.blocks[victim];
    // Offsets span the model header (0, 100), the coded body (middle), and
    // the body tail — but not the 5-byte coder flush, whose trailing bits
    // can legitimately be decode-irrelevant.
    for (const size_t rel : {size_t(0), size_t(100), size_t(bi.comp_size / 2),
                             size_t(bi.comp_size * 3 / 4)}) {
      auto corrupted = packed;
      corrupted[size_t(bi.offset) + rel] ^= 0x40;
      std::vector<uint8_t> out;
      size_t bad = SIZE_MAX;
      EXPECT_EQ(decompress(corrupted.data(), corrupted.size(), out, &bad),
                Status::corrupt_block);
      EXPECT_EQ(bad, victim);

      std::vector<size_t> bad_blocks;
      EXPECT_EQ(decompress_tolerant(corrupted.data(), corrupted.size(), out, bad_blocks),
                Status::corrupt_block);
      ASSERT_EQ(bad_blocks.size(), 1u);
      EXPECT_EQ(bad_blocks[0], victim);
      // The sibling block must have survived untouched.
      const size_t ok_block = 1 - victim;
      const size_t start = ok_block * (size_t(1) << 18);
      EXPECT_TRUE(std::equal(out.begin() + long(start),
                             out.begin() + long(start + info.blocks[ok_block].raw_size),
                             input.begin() + long(start)));
    }
  }
}

TEST(ArithCodec, FlippedEntropyTagIsDetectedNotMisdecoded) {
  const auto input = near_uniform_blob(size_t(1) << 18, 13);
  auto packed = compress(input, {size_t(1) << 18, 0});
  StreamInfo info;
  ASSERT_EQ(inspect(packed.data(), packed.size(), info), Status::ok);
  ASSERT_EQ(info.blocks[0].mode, kEntropyArith);

  // The tag lives in the top 2 bits of the directory's u32 at offset 18.
  for (const uint8_t flip : {uint8_t(0x40), uint8_t(0x80), uint8_t(0xC0)}) {
    auto corrupted = packed;
    corrupted[18 + 3] ^= flip;
    std::vector<uint8_t> out;
    EXPECT_NE(decompress(corrupted.data(), corrupted.size(), out), Status::ok)
        << "tag flip 0x" << std::hex << int(flip);
  }
}

}  // namespace
}  // namespace sperr::lossless
