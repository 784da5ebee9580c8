#include "lossless/lz77.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/rng.h"
#include "oracle/oracle.h"

namespace sperr::lossless {
namespace {

std::vector<uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

void expect_roundtrip(const std::vector<uint8_t>& input) {
  const auto tokens = lz77_tokenize(input.data(), input.size());
  std::vector<uint8_t> out;
  ASSERT_TRUE(lz77_reconstruct(tokens, out));
  ASSERT_EQ(out.size(), input.size());
  EXPECT_EQ(out, input);
}

TEST(Lz77, EmptyInput) {
  EXPECT_TRUE(lz77_tokenize(nullptr, 0).empty());
}

TEST(Lz77, ShortInputsAreLiterals) {
  const auto input = bytes_of("abc");
  const auto tokens = lz77_tokenize(input.data(), input.size());
  EXPECT_EQ(tokens.size(), 3u);
  for (const auto& t : tokens) EXPECT_EQ(t.length, 0u);
  expect_roundtrip(input);
}

TEST(Lz77, RepetitionProducesMatches) {
  const auto input = bytes_of("abcdabcdabcdabcdabcdabcd");
  const auto tokens = lz77_tokenize(input.data(), input.size());
  EXPECT_LT(tokens.size(), input.size() / 2);
  expect_roundtrip(input);
}

TEST(Lz77, OverlappingMatchRunLengthEncoding) {
  // 1000 identical bytes: the classic overlapping match (distance 1).
  std::vector<uint8_t> input(1000, 'x');
  const auto tokens = lz77_tokenize(input.data(), input.size());
  EXPECT_LT(tokens.size(), 10u);
  expect_roundtrip(input);
}

TEST(Lz77, RandomDataRoundTrips) {
  Rng rng(5);
  std::vector<uint8_t> input(50000);
  for (auto& b : input) b = uint8_t(rng.next());
  expect_roundtrip(input);
}

TEST(Lz77, CompressibleRandomDataRoundTrips) {
  Rng rng(6);
  // Random data over a tiny alphabet with long repeats.
  std::vector<uint8_t> input;
  while (input.size() < 100000) {
    const size_t run = 1 + rng.below(50);
    const uint8_t v = uint8_t(rng.below(4));
    input.insert(input.end(), run, v);
  }
  const auto tokens = lz77_tokenize(input.data(), input.size());
  EXPECT_LT(tokens.size(), input.size() / 4);
  expect_roundtrip(input);
}

TEST(Lz77, MatchAcrossExactWindowBoundary) {
  // A repeat separated by just under the window size must be found; one
  // separated by more must not reference out-of-window data.
  std::vector<uint8_t> input = bytes_of("HEADER_PATTERN_12345");
  input.resize(kWindowSize - 8, '.');
  const auto tail = bytes_of("HEADER_PATTERN_12345");
  input.insert(input.end(), tail.begin(), tail.end());
  expect_roundtrip(input);
}

TEST(Lz77, ReconstructRejectsCorruptDistance) {
  std::vector<Token> tokens;
  Token bad;
  bad.length = 10;
  bad.distance = 5;  // references data before the start
  tokens.push_back(bad);
  std::vector<uint8_t> out;
  EXPECT_FALSE(lz77_reconstruct(tokens, out));
}

TEST(Lz77, MaxMatchLengthRespected) {
  std::vector<uint8_t> input(10000, 'a');
  const auto tokens = lz77_tokenize(input.data(), input.size());
  for (const auto& t : tokens) {
    if (t.length) {
      EXPECT_LE(t.length, kMaxMatch);
    }
  }
  expect_roundtrip(input);
}

}  // namespace
}  // namespace sperr::lossless
