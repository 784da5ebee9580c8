#pragma once

// Bit-level serialization for every entropy-coding stage (SPECK, the
// outlier coder, Huffman, the lossless codec and the baselines): one writer,
// WordBitWriter, and one reader, BitReader. Bits are packed LSB-first into
// bytes so that a stream can be truncated at any byte boundary and remain a
// decodable prefix (the property SPECK's embedded coding relies on).

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace sperr {

/// The library's one bit writer; every encoder packs its bits through it.
/// Bits accumulate in a 64-bit register and every call spills the completed
/// whole bytes with one unaligned 8-byte store into a geometrically grown
/// buffer, so a put_bits() call is a shift/or plus a store.
class WordBitWriter {
 public:
  WordBitWriter() = default;

  /// Append `count` (<= 56) bits of `value`, least-significant bit first.
  /// Bits of `value` at or above `count` must be zero (callers pre-pack
  /// code + extra bits into one masked word; an unmasked stray bit would
  /// corrupt every later bit in the accumulator). Spilling whole bytes
  /// every call keeps the pending count <= 7 between calls, so 7 + 56
  /// never overflows the register.
  void put_bits(uint64_t value, unsigned count) {
    // Work on locals: the byte stores below may alias the members, so the
    // compiler would otherwise reload them after the spill.
    uint64_t acc = acc_ | (value << cnt_);
    unsigned cnt = cnt_ + count;
    nbit_ += count;
    const unsigned nbytes = cnt >> 3;  // <= 7 given the invariant above
    if (nbytes != 0) {
      if (pos_ + 8 > bytes_.size()) grow();
      // Byte-wise spill compiles to one unaligned store on little-endian
      // targets and stays format-correct on big-endian ones. The store is
      // always 8 bytes wide; only `nbytes` of them are finalized.
      uint8_t* p = bytes_.data() + pos_;
      for (unsigned i = 0; i < 8; ++i) p[i] = uint8_t(acc >> (8 * i));
      pos_ += nbytes;
      acc >>= 8 * nbytes;
      cnt &= 7;
    }
    acc_ = acc;
    cnt_ = cnt;
  }

  /// Append `count` zero bits (any count), batched through put_bits. The
  /// SPECK sorting sweep emits long runs of insignificant-set zeros this
  /// way instead of one put per set.
  void put_zeros(size_t count) {
    while (count >= 48) {
      put_bits(0, 48);
      count -= 48;
    }
    if (count) put_bits(0, unsigned(count));
  }

  /// Append `nbits` bits from an LSB-first packed byte buffer (the format
  /// finish() produces), 48 bits per put_bits call. This is how the SPECK
  /// encoder's deep-prefix refinement streams join the master stream.
  void append_bits(const uint8_t* bytes, size_t nbits) {
    size_t done = 0;
    while (nbits - done >= 48) {
      uint64_t v = 0;
      const size_t byte = done >> 3;  // done is a multiple of 48, so aligned
      for (unsigned i = 0; i < 6; ++i) v |= uint64_t(bytes[byte + i]) << (8 * i);
      put_bits(v, 48);
      done += 48;
    }
    while (done < nbits) {
      const unsigned take = unsigned(std::min<size_t>(8, nbits - done));
      const uint8_t mask = uint8_t((take < 8 ? (1u << take) : 256u) - 1u);
      put_bits(bytes[done >> 3] & mask, take);
      done += take;
    }
  }

  [[nodiscard]] size_t bit_count() const { return nbit_; }
  [[nodiscard]] size_t byte_count() const { return (nbit_ + 7) / 8; }

  /// Flush the accumulator tail and return the packed bytes (sized to
  /// ceil(bit_count / 8), trailing bits of the last byte zero). The writer
  /// stays reusable after clear().
  const std::vector<uint8_t>& finish();

  /// finish(), then move the packed bytes out and leave the writer empty.
  [[nodiscard]] std::vector<uint8_t> take() {
    finish();
    std::vector<uint8_t> out = std::move(bytes_);
    bytes_ = {};
    clear();
    return out;
  }

  void clear() {
    pos_ = 0;
    acc_ = 0;
    cnt_ = 0;
    nbit_ = 0;
  }

 private:
  void grow();

  std::vector<uint8_t> bytes_;
  size_t pos_ = 0;     ///< bytes of bytes_ holding finalized output
  uint64_t acc_ = 0;   ///< pending bits, LSB = oldest
  unsigned cnt_ = 0;   ///< pending bit count (<= 7 between calls)
  size_t nbit_ = 0;    ///< total bits written since clear()
};

/// Sequential bit reader over an externally owned byte range. Reading past
/// the end does not throw: it returns 0-bits and latches `exhausted()`, which
/// lets embedded-stream decoders terminate exactly where the encoder stopped.
/// The bulk reads (get_bits, peek_zero_run, word_at) load whole 64-bit words
/// and never touch a byte past `nbytes`.
class BitReader {
 public:
  BitReader() = default;
  BitReader(const uint8_t* data, size_t nbytes, size_t nbits = SIZE_MAX)
      : data_(data), nbytes_(nbytes),
        nbits_(nbits / 8 >= nbytes ? nbytes * 8 : nbits) {}

  [[nodiscard]] bool get() {
    if (pos_ >= nbits_) {
      exhausted_ = true;
      return false;
    }
    const bool bit = (data_[pos_ / 8] >> (pos_ % 8)) & 1u;
    ++pos_;
    return bit;
  }

  /// Read `count` (<= 64) bits, least-significant first. Missing bits read
  /// as zero (latching exhausted(), like get()). One word load.
  [[nodiscard]] uint64_t get_bits(unsigned count);

  /// Length of the run of zero bits starting at the cursor, capped at
  /// min(limit, bits_left()). Does not consume bits or latch exhausted():
  /// the SPECK decoder peeks the insignificant-set run, bulk-skips it, then
  /// resumes bit-by-bit at the first 1-bit (or stream end). Scans a word at
  /// a time.
  [[nodiscard]] size_t peek_zero_run(size_t limit) const {
    limit = std::min(limit, bits_left());
    for (size_t run = 0; run < limit; run += 64) {
      const uint64_t w = word_at(pos_ + run);
      if (w != 0) return std::min(limit, run + size_t(std::countr_zero(w)));
    }
    return limit;
  }

  /// The 64 bits starting at absolute bit position `bit`, least-significant
  /// first; bits at or past the end read as zero. Random access that
  /// neither moves the cursor nor latches exhausted(): the SPECK decoder
  /// reads a whole refinement pass this way, one word per 64 entries.
  [[nodiscard]] uint64_t word_at(size_t bit) const {
    const size_t byte = bit / 8;
    if (byte + 8 >= nbytes_ || bit + 64 > nbits_) return word_at_end(bit);
    uint64_t w;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&w, data_ + byte, 8);
    } else {
      w = 0;
      for (unsigned i = 0; i < 8; ++i) w |= uint64_t(data_[byte + i]) << (8 * i);
    }
    // The ninth byte supplies the top bit % 8 bits (none when aligned: the
    // split shift then moves it out entirely).
    const unsigned sh = unsigned(bit % 8);
    return (w >> sh) | ((uint64_t(data_[byte + 8]) << 1) << (63 - sh));
  }

  /// Advance the cursor by `count` bits. Caller guarantees
  /// count <= bits_left() (peek_zero_run's clamp provides this).
  void skip(size_t count) { pos_ += count; }

  [[nodiscard]] bool exhausted() const { return exhausted_; }
  [[nodiscard]] size_t bits_read() const { return pos_; }
  [[nodiscard]] size_t bits_left() const { return pos_ < nbits_ ? nbits_ - pos_ : 0; }

 private:
  /// word_at within 64 bits of the stream's or the buffer's end.
  [[nodiscard]] uint64_t word_at_end(size_t bit) const;

  const uint8_t* data_ = nullptr;
  size_t nbytes_ = 0;
  size_t nbits_ = 0;  ///< <= nbytes_ * 8
  size_t pos_ = 0;
  bool exhausted_ = false;
};

}  // namespace sperr
