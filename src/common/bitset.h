#pragma once

// Packed per-element bit flags. Bitplane coders track per-coefficient state
// (signs, significance marks) for multi-million-element grids; a
// byte-per-flag vector wastes 8x the cache footprint of a packed bitset.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sperr {

/// Fixed-size packed bitset with word access, sized at runtime.
class PackedBits {
 public:
  PackedBits() = default;
  explicit PackedBits(size_t n) { assign(n); }

  /// Resize to `n` bits, all cleared.
  void assign(size_t n) {
    n_ = n;
    words_.assign((n + 63) / 64, 0);
  }

  /// Resize to `n` bits WITHOUT clearing: existing word contents (and, on
  /// growth, indeterminate words) remain. For write-everything producers —
  /// SPECK's significance sweeps fill every word before any read — this
  /// skips assign()'s memset on the hot path.
  void resize_for_overwrite(size_t n) {
    n_ = n;
    words_.resize((n + 63) / 64);
  }

  [[nodiscard]] size_t size() const { return n_; }

  [[nodiscard]] bool get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(size_t i) { words_[i >> 6] |= uint64_t(1) << (i & 63); }
  void set(size_t i, bool v) {
    const uint64_t mask = uint64_t(1) << (i & 63);
    if (v)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }

  /// Number of set bits.
  [[nodiscard]] size_t count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += size_t(std::popcount(w));
    return c;
  }

  // 64-wide word access for batch consumers: bit i of the set lives at bit
  // (i & 63) of word i >> 6. Bits of the last word at or above size() are
  // not meaningful unless the producer wrote them zero.
  [[nodiscard]] uint64_t word(size_t w) const { return words_[w]; }
  [[nodiscard]] uint64_t* word_data() { return words_.data(); }
  [[nodiscard]] const uint64_t* word_data() const { return words_.data(); }

 private:
  std::vector<uint64_t> words_;
  size_t n_ = 0;
};

}  // namespace sperr
