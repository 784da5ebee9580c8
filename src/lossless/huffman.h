#pragma once

// Canonical Huffman coding over an arbitrary finite alphabet. This is the
// entropy-coding workhorse shared by the lossless back end (literals, match
// lengths, distances), the SZ-like baseline (quantization bins), and the
// Fig. 11 reproduction of SZ's outlier-coding scheme.
//
// Codes are length-limited (default 15 bits) so decode tables stay small, and
// canonical (assigned in (length, symbol) order) so only the length of each
// symbol's code needs to be transmitted.

#include <cstdint>
#include <vector>

#include "common/bitstream.h"

namespace sperr::lossless {

/// Hard upper bound on code length supported by the decoder tables. Callers
/// pass their own limit to huffman_code_lengths: the byte-oriented codec
/// uses 15 (its header packs lengths in 4 bits), the quantization-bin codec
/// uses the full 27 (alphabets up to 2^16 symbols need > 15-bit codes).
inline constexpr unsigned kMaxCodeLen = 27;

/// Compute length-limited canonical Huffman code lengths from symbol
/// frequencies. Symbols with zero frequency get length 0 (no code). If only
/// one symbol has nonzero frequency it is assigned a 1-bit code.
std::vector<uint8_t> huffman_code_lengths(const std::vector<uint64_t>& freq,
                                          unsigned max_len = kMaxCodeLen);

/// Canonical code values for the given lengths: codes[i] holds the code for
/// symbol i, to be emitted MSB-first with lengths[i] bits.
std::vector<uint32_t> canonical_codes(const std::vector<uint8_t>& lengths);

/// Encoder: holds the (lengths, codes) pair and writes symbols to a stream.
class HuffmanEncoder {
 public:
  explicit HuffmanEncoder(std::vector<uint8_t> lengths);

  /// Emit the code MSB-first, one bit per put_bits call.
  void encode(WordBitWriter& bw, uint32_t symbol) const {
    const unsigned len = lengths_[symbol];
    const uint32_t code = codes_[symbol];
    for (unsigned i = len; i-- > 0;) bw.put_bits((code >> i) & 1u, 1);
  }

  [[nodiscard]] const std::vector<uint8_t>& lengths() const { return lengths_; }
  [[nodiscard]] unsigned length_of(uint32_t symbol) const { return lengths_[symbol]; }

 private:
  std::vector<uint8_t> lengths_;
  std::vector<uint32_t> codes_;
};

/// Decoder: canonical bit-serial decode (one bit at a time, MSB-first).
class HuffmanDecoder {
 public:
  explicit HuffmanDecoder(std::vector<uint8_t> lengths);

  /// Decode one symbol; returns -1 on malformed input or exhausted stream.
  [[nodiscard]] int32_t decode(BitReader& br) const;

  [[nodiscard]] bool valid() const { return valid_; }

 private:
  // first_code_[l] / first_index_[l]: canonical decode tables per length.
  uint32_t first_code_[kMaxCodeLen + 2] = {};
  uint32_t first_index_[kMaxCodeLen + 2] = {};
  uint32_t count_[kMaxCodeLen + 2] = {};
  std::vector<uint32_t> sorted_symbols_;
  bool valid_ = false;
};

}  // namespace sperr::lossless
