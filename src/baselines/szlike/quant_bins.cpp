#include "baselines/szlike/quant_bins.h"

#include <algorithm>

#include "common/bitstream.h"
#include "common/byteio.h"
#include "lossless/codec.h"
#include "lossless/huffman.h"

namespace sperr::szlike {

namespace {

constexpr uint32_t kMagic = 0x51424e53;  // "SNBQ"
constexpr uint32_t kEscapeSymbol = 0;    // symbol 0 escapes out-of-range bins

// Map signed bin -> Huffman symbol (1..2*kCapacity-1); 0 is the escape.
inline uint32_t symbol_of(int32_t bin) { return uint32_t(bin + kCapacity); }
inline int32_t bin_of(uint32_t symbol) { return int32_t(symbol) - kCapacity; }

}  // namespace

std::vector<uint8_t> encode_quant_bins(const std::vector<int32_t>& bins,
                                       QuantBinStats* stats) {
  const size_t alphabet = 2 * size_t(kCapacity);
  std::vector<uint64_t> freq(alphabet, 0);
  size_t escapes = 0;
  for (const int32_t b : bins) {
    if (b > -kCapacity && b < kCapacity) {
      ++freq[symbol_of(b)];
    } else {
      ++freq[kEscapeSymbol];
      ++escapes;
    }
  }
  if (escapes == 0) freq[kEscapeSymbol] = 0;

  const auto lengths = lossless::huffman_code_lengths(freq);
  const lossless::HuffmanEncoder enc(lengths);

  std::vector<uint8_t> raw;
  put_u32(raw, kMagic);
  put_u64(raw, bins.size());
  // Sparse code-length table: (symbol, length) pairs for nonzero lengths.
  uint32_t nonzero = 0;
  for (auto l : lengths) nonzero += l != 0;
  put_u32(raw, nonzero);
  for (uint32_t s = 0; s < alphabet; ++s)
    if (lengths[s]) {
      put_u32(raw, s);
      put_u8(raw, lengths[s]);
    }

  WordBitWriter bw;
  for (const int32_t b : bins) {
    if (b > -kCapacity && b < kCapacity) {
      enc.encode(bw, symbol_of(b));
    } else {
      enc.encode(bw, kEscapeSymbol);
      bw.put_bits(uint32_t(b), 32);
    }
  }
  put_u64(raw, bw.bit_count());
  const auto payload = bw.take();
  raw.insert(raw.end(), payload.begin(), payload.end());

  auto out = lossless::compress(raw);
  if (stats) {
    stats->huffman_bits = 0;
    for (const int32_t b : bins)
      stats->huffman_bits +=
          (b > -kCapacity && b < kCapacity)
              ? enc.length_of(symbol_of(b))
              : enc.length_of(kEscapeSymbol) + 32;
    stats->total_bytes = out.size();
    stats->num_escapes = escapes;
  }
  return out;
}

Status decode_quant_bins(const uint8_t* data, size_t size,
                         std::vector<int32_t>& bins) {
  std::vector<uint8_t> raw;
  if (const Status s = lossless::decompress(data, size, raw); s != Status::ok)
    return s;

  ByteReader br(raw.data(), raw.size());
  if (br.u32() != kMagic) return Status::corrupt_stream;
  const uint64_t count = br.u64();
  const uint32_t nonzero = br.u32();
  if (!br.ok()) return Status::truncated_stream;

  const size_t alphabet = 2 * size_t(kCapacity);
  std::vector<uint8_t> lengths(alphabet, 0);
  for (uint32_t i = 0; i < nonzero; ++i) {
    const uint32_t s = br.u32();
    const uint8_t l = br.u8();
    if (!br.ok() || s >= alphabet) return Status::corrupt_stream;
    lengths[s] = l;
  }
  const uint64_t nbits = br.u64();
  if (!br.ok()) return Status::truncated_stream;

  bins.clear();
  if (count == 0) return Status::ok;

  const lossless::HuffmanDecoder dec(lengths);
  if (!dec.valid()) return Status::corrupt_stream;

  // Both counts are untrusted: clamp the bit budget to the bytes actually
  // present and cap the speculative reserve.
  const size_t avail_bits = (raw.size() - br.pos()) * 8;
  if (nbits > avail_bits) return Status::truncated_stream;
  if (count > nbits + 1) return Status::corrupt_stream;  // >= 1 bit per symbol
  BitReader bits(raw.data() + br.pos(), raw.size() - br.pos(), nbits);
  bins.reserve(size_t(count));
  for (uint64_t i = 0; i < count; ++i) {
    const int32_t sym = dec.decode(bits);
    if (sym < 0) return Status::truncated_stream;
    if (uint32_t(sym) == kEscapeSymbol) {
      bins.push_back(int32_t(bits.get_bits(32)));
      if (bits.exhausted()) return Status::truncated_stream;
    } else {
      bins.push_back(bin_of(uint32_t(sym)));
    }
  }
  return Status::ok;
}

}  // namespace sperr::szlike
