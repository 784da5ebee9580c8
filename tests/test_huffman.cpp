#include "lossless/huffman.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/checksum.h"
#include "common/rng.h"

namespace sperr::lossless {
namespace {

// Kraft inequality must hold for any generated code.
double kraft_sum(const std::vector<uint8_t>& lengths) {
  double k = 0;
  for (auto l : lengths)
    if (l) k += std::ldexp(1.0, -int(l));
  return k;
}

TEST(HuffmanLengths, EmptyFrequencies) {
  EXPECT_TRUE(huffman_code_lengths({}).empty());
  const auto lengths = huffman_code_lengths({0, 0, 0});
  EXPECT_EQ(lengths, (std::vector<uint8_t>{0, 0, 0}));
}

TEST(HuffmanLengths, SingleSymbolGetsOneBit) {
  const auto lengths = huffman_code_lengths({0, 42, 0});
  EXPECT_EQ(lengths, (std::vector<uint8_t>{0, 1, 0}));
}

TEST(HuffmanLengths, TwoEqualSymbols) {
  const auto lengths = huffman_code_lengths({5, 5});
  EXPECT_EQ(lengths, (std::vector<uint8_t>{1, 1}));
}

TEST(HuffmanLengths, SkewedDistributionIsShorterForFrequent) {
  const auto lengths = huffman_code_lengths({1000, 10, 10, 1});
  EXPECT_LT(lengths[0], lengths[3]);
  EXPECT_LE(kraft_sum(lengths), 1.0 + 1e-12);
}

TEST(HuffmanLengths, LengthLimitEnforcedOnFibonacciWeights) {
  // Fibonacci-like frequencies force maximal tree depth without a limit.
  std::vector<uint64_t> freq;
  uint64_t a = 1, b = 1;
  for (int i = 0; i < 40; ++i) {
    freq.push_back(a);
    const uint64_t c = a + b;
    a = b;
    b = c;
  }
  const auto lengths = huffman_code_lengths(freq);
  for (auto l : lengths) EXPECT_LE(l, kMaxCodeLen);
  EXPECT_LE(kraft_sum(lengths), 1.0 + 1e-12);
}

TEST(HuffmanCanonical, CodesAreCanonicalAndPrefixFree) {
  const auto lengths = huffman_code_lengths({40, 30, 20, 10, 5, 1});
  const auto codes = canonical_codes(lengths);
  // Within the same length, codes increase with symbol index; across
  // lengths, shorter codes are numerically smaller prefixes.
  for (size_t i = 0; i < lengths.size(); ++i)
    for (size_t j = i + 1; j < lengths.size(); ++j) {
      if (!lengths[i] || !lengths[j]) continue;
      // No code may be a prefix of another.
      const unsigned li = lengths[i], lj = lengths[j];
      const unsigned shared = std::min(li, lj);
      EXPECT_NE(codes[i] >> (li - shared), codes[j] >> (lj - shared))
          << "symbols " << i << " and " << j;
    }
}

TEST(HuffmanRoundTrip, UniformAlphabet) {
  const size_t n = 300;
  std::vector<uint64_t> freq(n, 1);
  const auto lengths = huffman_code_lengths(freq);
  const HuffmanEncoder enc(lengths);
  const HuffmanDecoder dec(lengths);
  ASSERT_TRUE(dec.valid());

  WordBitWriter bw;
  for (uint32_t s = 0; s < n; ++s) enc.encode(bw, s);
  const auto bytes = bw.take();
  BitReader br(bytes.data(), bytes.size());
  for (uint32_t s = 0; s < n; ++s) EXPECT_EQ(dec.decode(br), int32_t(s));
}

TEST(HuffmanRoundTrip, RandomSkewedStream) {
  Rng rng(31);
  const size_t alphabet = 600;
  std::vector<uint64_t> freq(alphabet, 0);
  std::vector<uint32_t> symbols;
  for (int i = 0; i < 20000; ++i) {
    // Zipf-ish skew.
    const auto s = uint32_t(rng.below(alphabet) * rng.below(alphabet) / alphabet);
    symbols.push_back(s);
    ++freq[s];
  }
  const auto lengths = huffman_code_lengths(freq);
  const HuffmanEncoder enc(lengths);
  const HuffmanDecoder dec(lengths);
  ASSERT_TRUE(dec.valid());

  WordBitWriter bw;
  for (auto s : symbols) enc.encode(bw, s);
  const auto bytes = bw.take();
  BitReader br(bytes.data(), bytes.size());
  for (auto s : symbols) ASSERT_EQ(dec.decode(br), int32_t(s));
}

TEST(HuffmanRoundTrip, CompressionBeatsFixedWidthOnSkewedData) {
  std::vector<uint64_t> freq = {10000, 100, 50, 10, 5, 1, 1, 1};
  const auto lengths = huffman_code_lengths(freq);
  const HuffmanEncoder enc(lengths);
  uint64_t total_bits = 0, count = 0;
  for (size_t s = 0; s < freq.size(); ++s) {
    total_bits += freq[s] * enc.length_of(uint32_t(s));
    count += freq[s];
  }
  EXPECT_LT(double(total_bits) / double(count), 3.0);  // << log2(8) = 3
}

TEST(HuffmanDecoder, ExhaustedStreamReturnsError) {
  const auto lengths = huffman_code_lengths({1, 1, 1, 1});
  const HuffmanDecoder dec(lengths);
  BitReader br(nullptr, 0);
  EXPECT_EQ(dec.decode(br), -1);
}

TEST(HuffmanDecoder, SingleSymbolCode) {
  const auto lengths = huffman_code_lengths({0, 7, 0});
  const HuffmanEncoder enc(lengths);
  const HuffmanDecoder dec(lengths);
  ASSERT_TRUE(dec.valid());
  WordBitWriter bw;
  enc.encode(bw, 1);
  enc.encode(bw, 1);
  const auto bytes = bw.take();
  BitReader br(bytes.data(), bytes.size());
  EXPECT_EQ(dec.decode(br), 1);
  EXPECT_EQ(dec.decode(br), 1);
}

TEST(HuffmanEncoder, StreamBytesArePinned) {
  // Fibonacci weights drive the codes to the 27-bit length limit; the hash
  // pins the bytes the encoder writes for a skewed symbol stream over them.
  std::vector<uint64_t> freq;
  uint64_t a = 1, b = 1;
  for (int i = 0; i < 40; ++i) {
    freq.push_back(a);
    const uint64_t c = a + b;
    a = b;
    b = c;
  }
  const auto lengths = huffman_code_lengths(freq);
  ASSERT_EQ(*std::max_element(lengths.begin(), lengths.end()), kMaxCodeLen);
  const HuffmanEncoder enc(lengths);
  Rng rng(2024);
  WordBitWriter bw;
  for (int i = 0; i < 5000; ++i)
    enc.encode(bw, uint32_t(rng.below(40) * rng.below(40) / 40));
  const auto bytes = bw.take();
  EXPECT_EQ(bytes.size(), 15579u);
  EXPECT_EQ(xxhash64(bytes.data(), bytes.size()), 0x09c61afe5d49170bull);
}

}  // namespace
}  // namespace sperr::lossless
