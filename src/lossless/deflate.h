#pragma once

// Token alphabet shared by every lossless framing (codec.cpp): the
// deflate-style length/distance code tables (RFC 1951 §3.2.5), the literal
// alphabet, and the 4-bit packing of Huffman code lengths in stream
// headers. The single-block legacy encoder in the test oracle writes the
// same alphabet, so it reads these definitions too.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sperr::lossless {

// Per-block payload modes of the format-2 framing (also the leading byte of
// single-block legacy streams, formats 0-1).
inline constexpr uint8_t kModeRaw = 0;
inline constexpr uint8_t kModeLz = 1;

inline constexpr int kNumLenCodes = 29;
inline constexpr uint16_t kLenBase[kNumLenCodes] = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
inline constexpr uint8_t kLenExtra[kNumLenCodes] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                                    1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                                    4, 4, 4, 4, 5, 5, 5, 5, 0};

inline constexpr int kNumDistCodes = 30;
inline constexpr uint32_t kDistBase[kNumDistCodes] = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,    25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
inline constexpr uint8_t kDistExtra[kNumDistCodes] = {
    0, 0, 0, 0, 1, 1, 2, 2, 3,  3,  4,  4,  5,  5,  6,
    6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

inline constexpr uint32_t kEob = 256;        // end-of-block symbol
inline constexpr size_t kLitAlphabet = 286;  // 0..255 literals, 256 EOB, 257..285 lengths

inline int length_code(uint32_t len) {
  for (int i = kNumLenCodes - 1; i >= 0; --i)
    if (len >= kLenBase[i]) return i;
  return 0;
}

inline int distance_code(uint32_t dist) {
  for (int i = kNumDistCodes - 1; i >= 0; --i)
    if (dist >= kDistBase[i]) return i;
  return 0;
}

// Code lengths are 0..15 so two fit per byte.
inline void pack_lengths(std::vector<uint8_t>& out, const std::vector<uint8_t>& lengths) {
  for (size_t i = 0; i < lengths.size(); i += 2) {
    const uint8_t lo = lengths[i];
    const uint8_t hi = i + 1 < lengths.size() ? lengths[i + 1] : 0;
    out.push_back(uint8_t(lo | (hi << 4)));
  }
}

}  // namespace sperr::lossless
