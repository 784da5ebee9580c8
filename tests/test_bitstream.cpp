#include "common/bitstream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"

namespace sperr {
namespace {

// The per-bit reference for WordBitWriter: the LSB-first packing rule
// written out one bit at a time.
struct PerBitWriter {
  std::vector<uint8_t> bytes;
  size_t nbit = 0;

  void put_bits(uint64_t value, unsigned count) {
    for (unsigned i = 0; i < count; ++i, ++nbit) {
      if (nbit % 8 == 0) bytes.push_back(0);
      bytes.back() |= uint8_t(((value >> i) & 1u) << (nbit % 8));
    }
  }
};

// The BitWriter suite pins the packing rules of the library's bit writer.
TEST(BitWriter, EmptyStream) {
  WordBitWriter bw;
  EXPECT_EQ(bw.bit_count(), 0u);
  EXPECT_EQ(bw.byte_count(), 0u);
  EXPECT_TRUE(bw.take().empty());
}

TEST(BitWriter, SingleBitOccupiesOneByte) {
  WordBitWriter bw;
  bw.put_bits(1, 1);
  EXPECT_EQ(bw.bit_count(), 1u);
  EXPECT_EQ(bw.byte_count(), 1u);
  EXPECT_EQ(bw.finish(), std::vector<uint8_t>{0x01});
}

TEST(BitWriter, LsbFirstPacking) {
  WordBitWriter bw;
  // Bits 1,0,1,1 -> binary ...1101 = 0x0d.
  for (const unsigned bit : {1u, 0u, 1u, 1u}) bw.put_bits(bit, 1);
  EXPECT_EQ(bw.finish(), std::vector<uint8_t>{0x0d});
}

TEST(BitWriter, CrossesByteBoundary) {
  WordBitWriter bw;
  for (int i = 0; i < 9; ++i) bw.put_bits(1, 1);
  EXPECT_EQ(bw.byte_count(), 2u);
  EXPECT_EQ(bw.finish(), (std::vector<uint8_t>{0xff, 0x01}));
}

TEST(BitWriter, PutBitsLittleEndian) {
  WordBitWriter bw;
  bw.put_bits(0b1011, 4);
  EXPECT_EQ(bw.finish(), std::vector<uint8_t>{0b1011});
}

TEST(BitStream, RoundTripRandomBits) {
  Rng rng(42);
  std::vector<bool> bits;
  WordBitWriter bw;
  for (int i = 0; i < 10007; ++i) {  // deliberately not a multiple of 8
    const bool b = rng.next() & 1;
    bits.push_back(b);
    bw.put_bits(b, 1);
  }
  const auto bytes = bw.take();
  BitReader br(bytes.data(), bytes.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(br.get(), bits[i]) << "bit " << i;
  }
  EXPECT_FALSE(br.exhausted());
}

TEST(BitReader, ExactBitCountLimitsReads) {
  WordBitWriter bw;
  for (int i = 0; i < 16; ++i) bw.put_bits(1, 1);
  const auto bytes = bw.take();
  BitReader br(bytes.data(), bytes.size(), 10);  // only 10 bits are valid
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(br.get());
    EXPECT_FALSE(br.exhausted());
  }
  EXPECT_FALSE(br.get());  // reads as 0 past the limit
  EXPECT_TRUE(br.exhausted());
}

TEST(BitReader, ExhaustionLatches) {
  BitReader br(nullptr, 0);
  EXPECT_FALSE(br.get());
  EXPECT_TRUE(br.exhausted());
  EXPECT_FALSE(br.get());
  EXPECT_TRUE(br.exhausted());
}

TEST(BitReader, GetBitsRoundTrip) {
  Rng rng(7);
  std::vector<std::pair<uint64_t, unsigned>> values;
  WordBitWriter bw;
  for (int i = 0; i < 500; ++i) {
    const unsigned width = 1 + unsigned(rng.below(32));
    const uint64_t v = rng.next() & ((width == 64 ? 0 : (uint64_t(1) << width)) - 1);
    values.emplace_back(v, width);
    bw.put_bits(v, width);
  }
  const auto bytes = bw.take();
  BitReader br(bytes.data(), bytes.size());
  for (const auto& [v, w] : values) EXPECT_EQ(br.get_bits(w), v);
}

TEST(WordBitWriter, MatchesPerBitReferenceOnRandomSequences) {
  // Widths sweep the full 1..56 contract, including long runs of wide
  // writes that keep the accumulator nearly full (the regime where a
  // deferred-spill implementation overflows the 64-bit register), between
  // runs of 1-bit writes (how the outlier, Huffman and ZFP-like coders
  // write). Each stream leaves through take(), and the emptied writer then
  // writes the next seed's stream.
  WordBitWriter fast;
  for (const uint64_t seed : {3u, 77u, 2026u}) {
    Rng rng(seed);
    PerBitWriter ref;
    for (int run = 0; run < 400; ++run) {
      const bool single = run % 2 == 0;
      for (int i = 0; i < 50; ++i) {
        const unsigned width = single ? 1 : 1 + unsigned(rng.below(56));
        const uint64_t v = rng.next() & ((uint64_t(1) << width) - 1);
        ref.put_bits(v, width);
        fast.put_bits(v, width);
        ASSERT_EQ(fast.bit_count(), ref.nbit);
      }
    }
    EXPECT_EQ(fast.take(), ref.bytes);
    EXPECT_EQ(fast.bit_count(), 0u);
  }
}

TEST(WordBitWriter, MaxWidthWritesBackToBack) {
  // All-ones 56-bit writes at every starting phase 0..7 of the accumulator.
  for (unsigned phase = 0; phase < 8; ++phase) {
    PerBitWriter ref;
    WordBitWriter fast;
    ref.put_bits(0, phase);
    fast.put_bits(0, phase);
    const uint64_t ones = (uint64_t(1) << 56) - 1;
    for (int i = 0; i < 64; ++i) {
      ref.put_bits(ones, 56);
      fast.put_bits(ones, 56);
    }
    EXPECT_EQ(fast.finish(), ref.bytes) << "phase " << phase;
  }
}

TEST(WordBitWriter, ClearResetsForReuse) {
  WordBitWriter w;
  w.put_bits(0x3FF, 10);
  (void)w.finish();
  w.clear();
  EXPECT_EQ(w.bit_count(), 0u);
  w.put_bits(0x5, 3);
  const auto& bytes = w.finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x5);
}

TEST(BitReader, BitsReadAndLeft) {
  WordBitWriter bw;
  bw.put_bits(0xabcd, 16);
  const auto bytes = bw.take();
  BitReader br(bytes.data(), bytes.size());
  EXPECT_EQ(br.bits_left(), 16u);
  (void)br.get_bits(5);
  EXPECT_EQ(br.bits_read(), 5u);
  EXPECT_EQ(br.bits_left(), 11u);
}

TEST(BitReader, WordReadsMatchBitByBitReads) {
  // word_at, peek_zero_run and get_bits load whole words: at every bit
  // position (so every byte alignment and both buffer ends) they must agree
  // with get(), read bits past nbits as zero even when the buffer holds
  // more bytes, and never read past the buffer (ASan builds check that).
  Rng rng(31);
  for (const size_t nbytes : {size_t(0), size_t(1), size_t(7), size_t(9), size_t(40)}) {
    std::vector<uint8_t> bytes(nbytes);
    for (auto& b : bytes) b = uint8_t(rng.next() & rng.next());  // zero-rich
    const size_t full = nbytes * 8;
    for (const size_t nbits : {full, full - std::min<size_t>(full, 13)}) {
      SCOPED_TRACE(std::to_string(nbytes) + " bytes, " + std::to_string(nbits) +
                   " bits");
      std::vector<bool> bits;
      BitReader ref(bytes.data(), bytes.size(), nbits);
      for (size_t i = 0; i < nbits; ++i) bits.push_back(ref.get());
      for (size_t pos = 0; pos <= nbits + 3; ++pos) {
        const BitReader at(bytes.data(), bytes.size(), nbits);
        uint64_t want = 0;
        for (size_t k = 0; k < 64 && pos + k < nbits; ++k)
          want |= uint64_t(bits[pos + k]) << k;
        ASSERT_EQ(at.word_at(pos), want) << "pos " << pos;

        BitReader br(bytes.data(), bytes.size(), nbits);
        br.skip(std::min(pos, nbits));
        size_t run = 0;
        while (pos + run < nbits && !bits[pos + run]) ++run;
        for (const size_t limit : {size_t(0), size_t(5), size_t(70), size_t(1000)})
          ASSERT_EQ(br.peek_zero_run(limit), std::min(run, limit)) << "pos " << pos;
        const unsigned count = unsigned(1 + pos % 64);
        const size_t got = std::min<size_t>(count, br.bits_left());
        const uint64_t mask = got < 64 ? (uint64_t(1) << got) - 1 : ~uint64_t(0);
        ASSERT_EQ(br.get_bits(count), want & mask);
        EXPECT_EQ(br.exhausted(), got < count);
      }
    }
  }
}

TEST(BitReader, BitCountBeyondTheBufferIsClamped) {
  const std::vector<uint8_t> bytes = {0xff, 0x01};
  BitReader br(bytes.data(), bytes.size(), 1000);
  EXPECT_EQ(br.bits_left(), 16u);
  EXPECT_EQ(br.get_bits(20), 0x1ffu);
  EXPECT_TRUE(br.exhausted());
}

}  // namespace
}  // namespace sperr
