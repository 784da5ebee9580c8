// The single-block lossless codec the block-parallel one replaced: one
// serial LZ77 + canonical Huffman pass over the whole input, no directory,
// no checksums. The library still decodes this format
// (lossless::decode_reference); this encoder is the serial baseline in
// bench_micro --lossless_json and writes the legacy-format fuzz seeds.

#include "common/bitstream.h"
#include "common/byteio.h"
#include "lossless/deflate.h"
#include "lossless/huffman.h"
#include "oracle/oracle.h"

namespace sperr::lossless {

namespace {

struct VectorSink final : TokenSink {
  std::vector<Token>& tokens;
  explicit VectorSink(std::vector<Token>& t) : tokens(t) {}
  void on_literal(uint8_t byte) override {
    Token lit{};
    lit.literal = byte;
    tokens.push_back(lit);
  }
  void on_match(uint32_t length, uint32_t distance) override {
    Token m{};
    m.length = length;
    m.distance = distance;
    tokens.push_back(m);
  }
};

}  // namespace

std::vector<Token> lz77_tokenize(const uint8_t* data, size_t size) {
  std::vector<Token> tokens;
  if (size == 0) return tokens;
  VectorSink sink(tokens);
  lz77_scan(data, size, sink);
  return tokens;
}

bool lz77_reconstruct(const std::vector<Token>& tokens, std::vector<uint8_t>& out) {
  for (const Token& t : tokens) {
    if (t.length == 0) {
      out.push_back(t.literal);
      continue;
    }
    if (t.distance == 0 || t.distance > out.size()) return false;
    // Byte-serial copy: an overlapping match (distance < length) replicates
    // its period.
    const size_t start = out.size() - t.distance;
    for (uint32_t i = 0; i < t.length; ++i) out.push_back(out[start + i]);
  }
  return true;
}

std::vector<uint8_t> encode_reference(const uint8_t* data, size_t size) {
  const std::vector<Token> tokens = lz77_tokenize(data, size);

  // Token symbol frequencies for both Huffman tables.
  std::vector<uint64_t> lit_freq(kLitAlphabet, 0);
  std::vector<uint64_t> dist_freq(kNumDistCodes, 0);
  for (const Token& t : tokens) {
    if (t.length == 0) {
      ++lit_freq[t.literal];
    } else {
      ++lit_freq[257 + size_t(length_code(t.length))];
      ++dist_freq[size_t(distance_code(t.distance))];
    }
  }
  ++lit_freq[kEob];

  // 15-bit limit: the header packs code lengths into 4 bits each.
  const auto lit_lengths = huffman_code_lengths(lit_freq, 15);
  const auto dist_lengths = huffman_code_lengths(dist_freq, 15);
  const HuffmanEncoder lit_enc(lit_lengths);
  const HuffmanEncoder dist_enc(dist_lengths);

  std::vector<uint8_t> out;
  out.push_back(kModeLz);
  put_u64(out, size);
  pack_lengths(out, lit_lengths);
  pack_lengths(out, dist_lengths);

  WordBitWriter bw;
  for (const Token& t : tokens) {
    if (t.length == 0) {
      lit_enc.encode(bw, t.literal);
      continue;
    }
    const int lc = length_code(t.length);
    lit_enc.encode(bw, uint32_t(257 + lc));
    bw.put_bits(t.length - kLenBase[lc], kLenExtra[lc]);
    const int dc = distance_code(t.distance);
    dist_enc.encode(bw, uint32_t(dc));
    bw.put_bits(t.distance - kDistBase[dc], kDistExtra[dc]);
  }
  lit_enc.encode(bw, kEob);

  const auto& payload = bw.finish();
  if (out.size() + payload.size() >= size + 9) {
    // Entropy coding did not pay off; store raw.
    std::vector<uint8_t> raw;
    raw.reserve(size + 9);
    raw.push_back(kModeRaw);
    put_u64(raw, size);
    raw.insert(raw.end(), data, data + size);
    return raw;
  }
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

}  // namespace sperr::lossless
