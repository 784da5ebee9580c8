#include "lossless/codec.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/bitstream.h"
#include "common/byteio.h"
#include "common/checksum.h"
#include "lossless/arith.h"
#include "lossless/deflate.h"
#include "lossless/huffman.h"
#include "lossless/lz77.h"

#ifdef SPERR_HAVE_OPENMP
#include <omp.h>
#endif

namespace sperr::lossless {

namespace {

// Stream format bytes of the blocked framings. Single-block legacy streams
// start with kModeRaw/kModeLz, so 2/3 unambiguously select a blocked container:
// format 2 prefixes every block payload with a mode byte, format 3 moves
// that information into a 2-bit entropy tag in the directory (and adds the
// arithmetic entropy path).
constexpr uint8_t kFmtBlocked = 2;
constexpr uint8_t kFmtBlockedTagged = 3;

// Format-2 streams written before kMaxBlockSize (up to 1 GiB blocks) still
// decode.
constexpr size_t kMaxBlockSizeLegacy = size_t(1) << 30;

// fmt + reserved + block_size(u32) + raw_size(u64) + nblocks(u32).
constexpr size_t kBlockedHeaderBytes = 18;
// Per block: tag+comp_size(u32) + checksum(u64).
constexpr size_t kDirEntryBytes = 12;
constexpr unsigned kTagShift = 30;
constexpr uint32_t kCompSizeMask = (uint32_t(1) << kTagShift) - 1;

// A Huffman-coded match codes at best ~2 bits for 258 bytes, i.e. a hair
// over 1000x expansion. Any raw/Huffman directory entry claiming more than
// this is corrupt, and rejecting it bounds the output allocation an
// adversarial header can demand. Arithmetic blocks can legitimately exceed
// it (a match can cost well under a bit), so they are bounded differently:
// the model header makes every arithmetic payload at least kMinArithBytes,
// and a block's raw size never exceeds the stream's block size.
constexpr uint64_t kMaxExpansion = 4096;

constexpr size_t kLitLenBytes = (kLitAlphabet + 1) / 2;    // packed 4 bits each
constexpr size_t kDistLenBytes = (kNumDistCodes + 1) / 2;  // 143 + 15 = 158

// Arithmetic model header: normalized frequencies, u16 little-endian per
// symbol, literal/length alphabet then distance alphabet. 632 bytes — the
// price an arithmetic block must beat Huffman by before it is selected.
constexpr size_t kArithModelBytes = 2 * (kLitAlphabet + kNumDistCodes);
// No valid arithmetic block payload is smaller than its model header,
// which bounds adversarial expansion claims.
constexpr size_t kMinArithBytes = kArithModelBytes;

// O(1) symbol lookup replacing the linear searches above on the hot paths.
// Distances above 256 bucket by (d - 1) >> 7: every distance base past 256 is
// 1 + a multiple of 128, so each bucket maps to exactly one code (zlib's trick).
struct CodeLut {
  uint8_t len_code[kMaxMatch + 1] = {};
  uint8_t dist_small[257] = {};
  uint8_t dist_large[256] = {};
};

const CodeLut& code_lut() {
  static const CodeLut lut = [] {
    CodeLut t{};
    for (uint32_t l = 3; l <= kMaxMatch; ++l) t.len_code[l] = uint8_t(length_code(l));
    for (uint32_t d = 1; d <= 256; ++d) t.dist_small[d] = uint8_t(distance_code(d));
    for (uint32_t d = 257; d <= kWindowSize; ++d)
      t.dist_large[(d - 1) >> 7] = uint8_t(distance_code(d));
    return t;
  }();
  return lut;
}

inline uint32_t fast_distance_code(const CodeLut& lut, uint32_t dist) {
  return dist <= 256 ? lut.dist_small[dist] : lut.dist_large[(dist - 1) >> 7];
}

void unpack_lengths_raw(const uint8_t* p, uint8_t* lengths, size_t count) {
  for (size_t i = 0; i < count; i += 2) {
    const uint8_t b = p[i / 2];
    lengths[i] = b & 0x0f;
    if (i + 1 < count) lengths[i + 1] = b >> 4;
  }
}

inline uint32_t bit_reverse(uint32_t v, unsigned n) {
  uint32_t r = 0;
  for (unsigned i = 0; i < n; ++i) {
    r = (r << 1) | (v & 1u);
    v >>= 1;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Streaming encode: two lz77_scan passes per block (count, then emit) with no
// materialized token array.
// ---------------------------------------------------------------------------

/// Pass 1: symbol frequencies plus the exact number of extra (non-entropy)
/// bits the token stream will need — enough to price the block under every
/// entropy coder without emitting a single bit.
struct FreqSink final : TokenSink {
  const CodeLut& lut;
  uint64_t lit[kLitAlphabet] = {};
  uint64_t dist[kNumDistCodes] = {};
  uint64_t extra_bits = 0;

  explicit FreqSink(const CodeLut& l) : lut(l) {}

  void on_literal(uint8_t byte) override { ++lit[byte]; }
  void on_literals(const uint8_t* bytes, size_t count) override {
    for (size_t i = 0; i < count; ++i) ++lit[bytes[i]];
  }
  void on_match(uint32_t length, uint32_t distance) override {
    const uint32_t lc = lut.len_code[length];
    const uint32_t dc = fast_distance_code(lut, distance);
    ++lit[257 + lc];
    ++dist[dc];
    extra_bits += kLenExtra[lc] + kDistExtra[dc];
  }
};

/// Pass 2a (Huffman): feed tokens straight into the bit writer. Codes are
/// stored bit-reversed so one put_bits() call (LSB-first) lands on the wire
/// exactly as the reference encoder's MSB-first per-bit loop does; a match's
/// length code, length extra, distance code and distance extra are packed
/// into two put_bits() calls (<= 20 and <= 28 bits).
struct EmitSink final : TokenSink {
  const CodeLut& lut;
  WordBitWriter& bw;
  uint32_t lit_code[kLitAlphabet] = {};
  uint8_t lit_len[kLitAlphabet] = {};
  uint32_t dist_code[kNumDistCodes] = {};
  uint8_t dist_len[kNumDistCodes] = {};

  EmitSink(const CodeLut& l, WordBitWriter& w, const std::vector<uint8_t>& lit_lengths,
           const std::vector<uint8_t>& dist_lengths)
      : lut(l), bw(w) {
    const auto lc = canonical_codes(lit_lengths);
    for (size_t s = 0; s < kLitAlphabet; ++s) {
      lit_len[s] = lit_lengths[s];
      lit_code[s] = bit_reverse(lc[s], lit_lengths[s]);
    }
    const auto dc = canonical_codes(dist_lengths);
    for (size_t s = 0; s < size_t(kNumDistCodes); ++s) {
      dist_len[s] = dist_lengths[s];
      dist_code[s] = bit_reverse(dc[s], dist_lengths[s]);
    }
  }

  void on_literal(uint8_t byte) override { bw.put_bits(lit_code[byte], lit_len[byte]); }
  void on_literals(const uint8_t* bytes, size_t count) override {
    for (size_t i = 0; i < count; ++i)
      bw.put_bits(lit_code[bytes[i]], lit_len[bytes[i]]);
  }
  void on_match(uint32_t length, uint32_t distance) override {
    const uint32_t lc = lut.len_code[length];
    bw.put_bits(lit_code[257 + lc] | (uint64_t(length - kLenBase[lc]) << lit_len[257 + lc]),
                lit_len[257 + lc] + kLenExtra[lc]);
    const uint32_t dc = fast_distance_code(lut, distance);
    bw.put_bits(dist_code[dc] | (uint64_t(distance - kDistBase[dc]) << dist_len[dc]),
                dist_len[dc] + kDistExtra[dc]);
  }
};

/// Pass 2b (arithmetic): same token stream through the range coder under the
/// block's normalized static model; extra bits ride along at uniform
/// probability via encode_raw().
struct ArithSink final : TokenSink {
  const CodeLut& lut;
  ArithEncoder& enc;
  const uint32_t* lit_cum;
  const uint32_t* dist_cum;

  ArithSink(const CodeLut& l, ArithEncoder& e, const uint32_t* lc, const uint32_t* dc)
      : lut(l), enc(e), lit_cum(lc), dist_cum(dc) {}

  void on_literal(uint8_t byte) override {
    enc.encode(lit_cum[byte], lit_cum[byte + 1], kArithTotalBits);
  }
  void on_literals(const uint8_t* bytes, size_t count) override {
    for (size_t i = 0; i < count; ++i)
      enc.encode(lit_cum[bytes[i]], lit_cum[bytes[i] + 1], kArithTotalBits);
  }
  void on_match(uint32_t length, uint32_t distance) override {
    const uint32_t lc = lut.len_code[length];
    enc.encode(lit_cum[257 + lc], lit_cum[257 + lc + 1], kArithTotalBits);
    enc.encode_raw(length - kLenBase[lc], kLenExtra[lc]);
    const uint32_t dc = fast_distance_code(lut, distance);
    enc.encode(dist_cum[dc], dist_cum[dc + 1], kArithTotalBits);
    enc.encode_raw(distance - kDistBase[dc], kDistExtra[dc]);
  }
};

/// Per-worker reusable state: hash chains for the matcher, bytes for the
/// bit writer, cumulative tables for the arithmetic model. Keeps the
/// parallel loop allocation-free in steady state.
struct EncScratch {
  MatchScratch match;
  WordBitWriter bw;
  ArithCumTable lit_cum;
  ArithCumTable dist_cum;
};

struct BlockOut {
  uint8_t tag = kEntropyRaw;
  std::vector<uint8_t> payload;
};

/// Encode one block's payload and pick its entropy tag. The frequency pass
/// prices the block exactly under Huffman and to within a rounding bit
/// under the arithmetic model, so the cheapest of raw / Huffman /
/// arithmetic is chosen before a single payload bit is emitted. Blocks
/// where entropy coding loses — SPECK's near-random bitplanes — skip the
/// emit scan entirely and are stored raw at zero overhead.
BlockOut encode_block(const uint8_t* data, size_t n, EncScratch& es) {
  const CodeLut& lut = code_lut();
  FreqSink freq(lut);
  lz77_scan(data, n, freq, &es.match);
  ++freq.lit[kEob];

  const std::vector<uint64_t> lit_freq(freq.lit, freq.lit + kLitAlphabet);
  const std::vector<uint64_t> dist_freq(freq.dist, freq.dist + kNumDistCodes);
  // 15-bit limit: the header packs code lengths into 4 bits each.
  const auto lit_lengths = huffman_code_lengths(lit_freq, 15);
  const auto dist_lengths = huffman_code_lengths(dist_freq, 15);

  uint64_t huff_bits = freq.extra_bits;
  for (size_t s = 0; s < kLitAlphabet; ++s) huff_bits += lit_freq[s] * lit_lengths[s];
  for (size_t s = 0; s < size_t(kNumDistCodes); ++s)
    huff_bits += dist_freq[s] * dist_lengths[s];
  const size_t huff_size = kLitLenBytes + kDistLenBytes + size_t((huff_bits + 7) / 8);

  uint16_t lit_norm[kLitAlphabet];
  uint16_t dist_norm[kNumDistCodes];
  arith_normalize(freq.lit, kLitAlphabet, lit_norm);
  arith_normalize(freq.dist, kNumDistCodes, dist_norm);
  const uint64_t arith_bits = arith_cost_bits(freq.lit, lit_norm, kLitAlphabet) +
                              arith_cost_bits(freq.dist, dist_norm, kNumDistCodes) +
                              freq.extra_bits;
  const size_t arith_size =
      kArithModelBytes + kArithFlushBytes + size_t((arith_bits + 7) / 8);

  BlockOut out;
  // Ties resolve raw > Huffman > arithmetic: raw and Huffman decode faster.
  if (n <= huff_size && n <= arith_size) {
    out.tag = kEntropyRaw;
    out.payload.assign(data, data + n);
    return out;
  }

  if (huff_size <= arith_size) {
    out.tag = kEntropyHuffman;
    out.payload.reserve(huff_size);
    pack_lengths(out.payload, lit_lengths);
    pack_lengths(out.payload, dist_lengths);
    es.bw.clear();
    EmitSink emit(lut, es.bw, lit_lengths, dist_lengths);
    lz77_scan(data, n, emit, &es.match);
    es.bw.put_bits(emit.lit_code[kEob], emit.lit_len[kEob]);
    const auto& payload = es.bw.finish();
    out.payload.insert(out.payload.end(), payload.begin(), payload.end());
  } else {
    out.tag = kEntropyArith;
    out.payload.reserve(arith_size);
    for (size_t s = 0; s < kLitAlphabet; ++s) put_u16(out.payload, lit_norm[s]);
    for (size_t s = 0; s < size_t(kNumDistCodes); ++s) put_u16(out.payload, dist_norm[s]);
    es.lit_cum.build(lit_norm, kLitAlphabet, /*want_slots=*/false);
    es.dist_cum.build(dist_norm, kNumDistCodes, /*want_slots=*/false);
    ArithEncoder enc(out.payload);  // range-coded body straight after the model
    ArithSink emit(lut, enc, es.lit_cum.cum.data(), es.dist_cum.cum.data());
    lz77_scan(data, n, emit, &es.match);
    enc.encode(es.lit_cum.cum[kEob], es.lit_cum.cum[kEob + 1], kArithTotalBits);
    enc.finish();
  }
  // The price model is exact for Huffman and an upper bound for arithmetic,
  // but guard the invariant a directory consumer relies on regardless: a
  // block payload never exceeds its raw size.
  if (out.payload.size() > n) {
    out.tag = kEntropyRaw;
    out.payload.assign(data, data + n);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Table-driven decode: one flat lookup per symbol instead of the reference
// decoder's bit-at-a-time canonical walk.
// ---------------------------------------------------------------------------

constexpr unsigned kMaxTableBits = 15;  // == the 15-bit code length limit

/// Build a flat decode table: entry = (symbol << 4) | code_len, 0 = invalid.
/// The table is sized 2^L where L is the longest code actually present in
/// this block's header (not the worst-case 15), which shrinks both the
/// fill cost and the cache footprint for typical 9–12 bit codes. Indexing
/// is by the next L bits of the stream (LSB-first), so each code fills
/// every slot whose low bits equal its reversed code. Rejects
/// over-subscribed length sets; an all-zero set yields an empty
/// (never-matching) table, which is valid for an unused distance alphabet.
/// Returns L (0 for the empty table), or -1 for an invalid length set.
int build_flat_table(const uint8_t* lengths, size_t count, std::vector<uint16_t>& table) {
  uint32_t counts[16] = {};
  unsigned max_len = 0;
  for (size_t i = 0; i < count; ++i) {
    ++counts[lengths[i]];
    max_len = std::max(max_len, unsigned(lengths[i]));
  }
  if (max_len == 0) {
    table.clear();
    return 0;
  }

  uint64_t kraft = 0;
  for (unsigned l = 1; l <= kMaxTableBits; ++l)
    kraft += uint64_t(counts[l]) << (kMaxTableBits - l);
  if (kraft > (uint64_t(1) << kMaxTableBits)) return -1;

  table.assign(size_t(1) << max_len, 0);
  uint32_t next_code[16] = {};
  uint32_t code = 0;
  for (unsigned l = 1; l <= max_len; ++l) {
    code = (code + counts[l - 1]) << 1;
    next_code[l] = code;
  }
  for (size_t sym = 0; sym < count; ++sym) {
    const unsigned len = lengths[sym];
    if (len == 0) continue;
    const uint32_t rev = bit_reverse(next_code[len]++, len);
    const uint16_t entry = uint16_t((sym << 4) | len);
    const uint32_t step = 1u << len;
    for (uint32_t idx = rev; idx < (1u << max_len); idx += step) table[idx] = entry;
  }
  return int(max_len);
}

/// LSB-first bit reader with a 64-bit accumulator. Reads past the end return
/// zero bits while `overrun()` latches — mirroring BitReader's contract but
/// amortizing to one branch + shift per symbol.
class BitsIn {
 public:
  BitsIn(const uint8_t* p, size_t n) : p_(p), n_(n) {}

  inline uint32_t peek(unsigned k) {  // k <= 15
    refill();
    return uint32_t(buf_) & ((1u << k) - 1u);
  }
  inline void consume(unsigned k) {
    buf_ >>= k;
    cnt_ -= k;
    used_ += k;
  }
  inline uint32_t get(unsigned k) {  // k <= 13 (extra bits)
    refill();
    const uint32_t v = uint32_t(buf_) & ((1u << k) - 1u);
    consume(k);
    return v;
  }
  [[nodiscard]] bool overrun() const { return used_ > 8 * n_; }

 private:
  inline void refill() {
    while (cnt_ <= 56) {
      buf_ |= uint64_t(pos_ < n_ ? p_[pos_] : 0) << cnt_;
      ++pos_;
      cnt_ += 8;
    }
  }

  const uint8_t* p_;
  size_t n_;
  size_t pos_ = 0;
  uint64_t buf_ = 0;
  unsigned cnt_ = 0;
  size_t used_ = 0;
};

struct DecScratch {
  std::vector<uint16_t> lit_table;
  std::vector<uint16_t> dist_table;
  ArithCumTable lit_cum;
  ArithCumTable dist_cum;
};

/// Copy a decoded match into the output, replicating overlap. Overlapping
/// matches (dist < len) seed one period, then double the copied region —
/// every memcpy has disjoint, exactly sized operands, so nothing is written
/// past dst + len (a parallel decode never touches a neighbouring block).
inline void copy_match(uint8_t* dst, uint32_t dist, uint32_t len) {
  const uint8_t* src = dst - dist;
  if (dist >= len) {
    std::memcpy(dst, src, len);
    return;
  }
  size_t copied = dist;
  std::memcpy(dst, src, dist);
  while (copied < len) {
    const size_t chunk = std::min(copied, size_t(len) - copied);
    std::memcpy(dst + copied, dst, chunk);
    copied += chunk;
  }
}

/// Decode the Huffman (kEntropyHuffman) body of one block into exactly
/// `raw` bytes at `dst`.
Status decode_huffman_body(const uint8_t* p, size_t comp, uint8_t* dst, size_t raw,
                           DecScratch& ds) {
  if (comp < kLitLenBytes + kDistLenBytes) return Status::truncated_stream;
  uint8_t lit_lengths[kLitAlphabet];
  uint8_t dist_lengths[kNumDistCodes];
  unpack_lengths_raw(p, lit_lengths, kLitAlphabet);
  unpack_lengths_raw(p + kLitLenBytes, dist_lengths, kNumDistCodes);
  const int lit_bits = build_flat_table(lit_lengths, kLitAlphabet, ds.lit_table);
  if (lit_bits <= 0) return Status::corrupt_stream;  // an empty lit table cannot code EOB
  const int dist_bits = build_flat_table(dist_lengths, kNumDistCodes, ds.dist_table);
  if (dist_bits < 0) return Status::corrupt_stream;

  BitsIn in(p + kLitLenBytes + kDistLenBytes, comp - kLitLenBytes - kDistLenBytes);
  // Bits past the end read as zeros, so a failure after them is a cut
  // stream, not a corrupt one. (Legacy streams return this status as is;
  // the blocked framings fold it into corrupt_block.)
  const auto fail = [&in] {
    return in.overrun() ? Status::truncated_stream : Status::corrupt_stream;
  };
  size_t produced = 0;
  while (true) {
    const uint16_t e = ds.lit_table[in.peek(unsigned(lit_bits))];
    if (e == 0) return fail();
    in.consume(e & 0xfu);
    const uint32_t sym = e >> 4;
    if (sym < 256) {
      if (produced == raw) return fail();
      dst[produced++] = uint8_t(sym);
      continue;
    }
    if (sym == kEob) break;
    const uint32_t lc = sym - 257;
    if (lc >= uint32_t(kNumLenCodes)) return Status::corrupt_stream;
    const uint32_t len = kLenBase[lc] + in.get(kLenExtra[lc]);
    if (dist_bits == 0) return Status::corrupt_stream;  // match with no dist alphabet
    const uint16_t ed = ds.dist_table[in.peek(unsigned(dist_bits))];
    if (ed == 0) return Status::corrupt_stream;
    in.consume(ed & 0xfu);
    const uint32_t dc = ed >> 4;
    const uint32_t dist = kDistBase[dc] + in.get(kDistExtra[dc]);
    if (in.overrun()) return Status::truncated_stream;
    if (dist > produced) return Status::corrupt_stream;
    if (len > raw - produced) return Status::corrupt_stream;
    copy_match(dst + produced, dist, len);
    produced += len;
  }
  if (in.overrun()) return Status::truncated_stream;
  if (produced != raw) return Status::corrupt_stream;
  return Status::ok;
}

/// Decode the arithmetic (kEntropyArith) body of one block into exactly
/// `raw` bytes at `dst`: model header, then range-coded token stream.
Status decode_arith_body(const uint8_t* p, size_t comp, uint8_t* dst, size_t raw,
                         DecScratch& ds) {
  if (comp < kMinArithBytes) return Status::truncated_stream;
  uint16_t lit_norm[kLitAlphabet];
  uint16_t dist_norm[kNumDistCodes];
  for (size_t s = 0; s < kLitAlphabet; ++s)
    lit_norm[s] = uint16_t(p[2 * s] | (p[2 * s + 1] << 8));
  const uint8_t* dp = p + 2 * kLitAlphabet;
  for (size_t s = 0; s < size_t(kNumDistCodes); ++s)
    dist_norm[s] = uint16_t(dp[2 * s] | (dp[2 * s + 1] << 8));
  if (!ds.lit_cum.build(lit_norm, kLitAlphabet, /*want_slots=*/true))
    return Status::corrupt_stream;
  if (ds.lit_cum.slot.empty()) return Status::corrupt_stream;  // no EOB possible
  if (!ds.dist_cum.build(dist_norm, kNumDistCodes, /*want_slots=*/true))
    return Status::corrupt_stream;

  const uint32_t* lit_cum = ds.lit_cum.cum.data();
  const uint32_t* dist_cum = ds.dist_cum.cum.data();
  ArithDecoder in(p + kArithModelBytes, comp - kArithModelBytes);
  size_t produced = 0;
  while (true) {
    const uint32_t sym = ds.lit_cum.slot[in.decode_target(kArithTotalBits)];
    in.consume(lit_cum[sym], lit_cum[sym + 1], kArithTotalBits);
    if (sym < 256) {
      if (produced == raw) return Status::corrupt_stream;
      dst[produced++] = uint8_t(sym);
      continue;
    }
    if (sym == kEob) break;
    const uint32_t lc = sym - 257;
    if (lc >= uint32_t(kNumLenCodes)) return Status::corrupt_stream;
    const uint32_t len = kLenBase[lc] + in.decode_raw(kLenExtra[lc]);
    if (ds.dist_cum.slot.empty()) return Status::corrupt_stream;
    const uint32_t dc = ds.dist_cum.slot[in.decode_target(kArithTotalBits)];
    in.consume(dist_cum[dc], dist_cum[dc + 1], kArithTotalBits);
    const uint32_t dist = kDistBase[dc] + in.decode_raw(kDistExtra[dc]);
    if (in.overrun()) return Status::truncated_stream;
    if (dist > produced) return Status::corrupt_stream;
    if (len > raw - produced) return Status::corrupt_stream;
    copy_match(dst + produced, dist, len);
    produced += len;
  }
  if (in.overrun()) return Status::truncated_stream;
  if (produced != raw) return Status::corrupt_stream;
  return Status::ok;
}

/// Parse + validate the blocked framing and directory (formats 2 and 3).
/// Fills `info` (offsets, per-block raw sizes, entropy tags) without
/// decoding any payload. `tolerant` relaxes the payload-extent checks
/// (truncated or shifted payloads parse; per-block bounds are enforced at
/// decode time instead) — the header and directory must still be fully
/// present and plausible either way.
Status parse_blocked(const uint8_t* data, size_t size, StreamInfo& info,
                     bool tolerant = false) {
  ByteReader hdr(data, size);
  const uint8_t fmt = hdr.u8();
  const bool tagged = fmt == kFmtBlockedTagged;
  const uint8_t reserved = hdr.u8();
  const uint32_t bs32 = hdr.u32();
  const uint64_t raw_size = hdr.u64();
  const uint32_t nb = hdr.u32();
  if (!hdr.ok()) return Status::truncated_stream;
  if (reserved != 0) return Status::corrupt_stream;

  const size_t bs = bs32;
  if (bs < kMinBlockSize || bs > (tagged ? kMaxBlockSize : kMaxBlockSizeLegacy))
    return Status::corrupt_stream;
  const uint64_t want_nb = raw_size == 0 ? 0 : (raw_size - 1) / bs + 1;
  if (nb != want_nb) return Status::corrupt_stream;
  if (uint64_t(nb) * kDirEntryBytes > hdr.remaining()) return Status::truncated_stream;

  info.blocked = true;
  info.tagged = tagged;
  info.raw_size = raw_size;
  info.block_size = bs;
  info.blocks.resize(nb);
  uint64_t payload_total = 0;
  for (uint32_t b = 0; b < nb; ++b) {
    const uint32_t word = hdr.u32();
    if (tagged) {
      info.blocks[b].comp_size = word & kCompSizeMask;
      info.blocks[b].mode = uint8_t(word >> kTagShift);
    } else {
      info.blocks[b].comp_size = word;
    }
    info.blocks[b].checksum = hdr.u64();
    payload_total += info.blocks[b].comp_size;
  }
  if (payload_total > hdr.remaining() && !tolerant) return Status::truncated_stream;
  if (payload_total < hdr.remaining() && !tolerant) return Status::corrupt_stream;
  // Tolerant parsing skips the per-block expansion checks below, so bound
  // the total allocation against the bytes actually present instead:
  // nothing can legitimately expand by more than kMaxExpansion, except that
  // arithmetic blocks (credited per directory entry, scaled to the block
  // size) can reach block_size from kMinArithBytes of payload.
  const uint64_t entry_credit = std::max<uint64_t>(64, bs / kMaxExpansion);
  if (tolerant &&
      raw_size > (uint64_t(hdr.remaining()) + entry_credit * uint64_t(nb) + 64) *
                     kMaxExpansion)
    return Status::corrupt_stream;

  uint64_t off = hdr.pos();
  for (uint32_t b = 0; b < nb; ++b) {
    BlockInfo& bi = info.blocks[b];
    bi.offset = off;
    off += bi.comp_size;
    bi.raw_size = b + 1 < nb ? bs : raw_size - uint64_t(bs) * (nb - 1);
    if (!tagged)
      bi.mode = bi.comp_size > 0 && bi.offset < size ? data[bi.offset] : 0;
    if (tolerant) continue;
    // Directory entries promising implausible expansion are rejected before
    // any allocation is sized from them (tolerant decoding instead marks the
    // block bad when its payload turns out undecodable). Arithmetic blocks
    // instead carry a hard payload floor: the 632-byte model header.
    if (tagged && bi.mode == kEntropyArith) {
      if (bi.comp_size < kMinArithBytes) return Status::corrupt_stream;
    } else if (bi.raw_size > uint64_t(bi.comp_size) * kMaxExpansion + 64) {
      return Status::corrupt_stream;
    }
  }
  return Status::ok;
}

/// Decode one parsed block (payload within the input) into exactly its raw
/// size at `dst`. Any inconsistency — bad tag, invalid code tables,
/// out-of-range match, wrong decoded size — fails the block without
/// touching its neighbours.
Status decode_block(const uint8_t* data, const StreamInfo& info, const BlockInfo& bi,
                    uint8_t* dst, DecScratch& ds) {
  const uint8_t* p = data + bi.offset;
  size_t comp = bi.comp_size;
  const size_t raw = size_t(bi.raw_size);
  if (!info.tagged) {
    // Format 2: the mode byte (bi.mode) leads the payload; only raw and
    // Huffman exist.
    if (comp == 0) return Status::truncated_stream;
    if (bi.mode == kEntropyArith) return Status::corrupt_stream;
    ++p;
    --comp;
  }
  switch (bi.mode) {
    case kEntropyRaw:
      if (comp != raw) return Status::corrupt_stream;
      std::memcpy(dst, p, raw);
      return Status::ok;
    case kEntropyHuffman:
      return decode_huffman_body(p, comp, dst, raw, ds);
    case kEntropyArith:
      return decode_arith_body(p, comp, dst, raw, ds);
    default:
      return Status::corrupt_stream;
  }
}

/// Admit a stream's declared raw size against `limits`, then size `out` to
/// it. The raw size is attacker-controlled, so this gate runs before any
/// allocation is sized from it.
Status size_output(size_t stream_bytes, uint64_t raw_size, const ResourceLimits* limits,
                   std::vector<uint8_t>& out) {
  const ResourceLimits& rl = effective_limits(limits);
  if (!rl.admits_output(raw_size) || !rl.admits_expansion(stream_bytes, raw_size))
    return Status::resource_exhausted;
  out.clear();
  try {
    out.resize(size_t(raw_size));
  } catch (const std::bad_alloc&) {
    return Status::resource_exhausted;
  }
  return Status::ok;
}

/// The one block loop behind decompress and decompress_tolerant. Parses the
/// framing (`tolerant` as in parse_blocked), sizes `out`, then decodes every
/// block in parallel: a block whose payload lies past the input or fails to
/// decode is zero-filled, and a decoded block must match its XXH64.
/// `bad_blocks` receives the sorted indices of the blocks that failed either
/// way. Legacy single-block streams go to decode_reference (no blocks).
/// Returns != ok only when the framing itself failed.
Status decode_blocks(const uint8_t* data, size_t size, bool tolerant,
                     std::vector<uint8_t>& out, std::vector<size_t>& bad_blocks,
                     const ResourceLimits* limits) {
  bad_blocks.clear();
  if (size == 0) return Status::truncated_stream;
  const uint8_t fmt = data[0];
  if (fmt == kModeRaw || fmt == kModeLz)
    return decode_reference(data, size, out, limits);
  if (fmt != kFmtBlocked && fmt != kFmtBlockedTagged) return Status::corrupt_stream;

  StreamInfo info;
  if (const Status s = parse_blocked(data, size, info, tolerant); s != Status::ok)
    return s;
  if (const Status s = size_output(size, info.raw_size, limits, out); s != Status::ok)
    return s;
  std::vector<Status> verdicts(info.blocks.size(), Status::ok);

#ifdef SPERR_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
  for (int64_t b = 0; b < int64_t(info.blocks.size()); ++b) {
    const BlockInfo& bi = info.blocks[size_t(b)];
    uint8_t* dst = out.data() + size_t(b) * info.block_size;
    const size_t raw = size_t(bi.raw_size);
    Status st = Status::truncated_stream;  // payload cut off under this block
    if (bi.offset + bi.comp_size <= size) {
      thread_local DecScratch scratch;
      st = decode_block(data, info, bi, dst, scratch);
    }
    if (st != Status::ok) std::fill(dst, dst + raw, uint8_t(0));
    if (st == Status::ok && xxhash64(dst, raw) != bi.checksum)
      st = Status::corrupt_block;
    verdicts[size_t(b)] = st;
  }
  for (size_t b = 0; b < verdicts.size(); ++b)
    if (verdicts[b] != Status::ok) bad_blocks.push_back(b);
  return Status::ok;
}

}  // namespace

// ---------------------------------------------------------------------------
// Block-parallel public entry points.
// ---------------------------------------------------------------------------

std::vector<uint8_t> compress(const uint8_t* data, size_t size, const EncodeOptions& opts) {
  const size_t bs = clamp_block_size(opts.block_size);
  const size_t nblocks = size == 0 ? 0 : (size - 1) / bs + 1;
  std::vector<BlockOut> blocks(nblocks);
  std::vector<uint64_t> checksums(nblocks, 0);

#ifdef SPERR_HAVE_OPENMP
  const int nt = opts.num_threads > 0 ? opts.num_threads : omp_get_max_threads();
#pragma omp parallel for schedule(dynamic) num_threads(nt)
#endif
  for (int64_t b = 0; b < int64_t(nblocks); ++b) {
    const size_t off = size_t(b) * bs;
    const size_t n = std::min(bs, size - off);
    checksums[size_t(b)] = xxhash64(data + off, n);
    thread_local EncScratch scratch;
    blocks[size_t(b)] = encode_block(data + off, n, scratch);
  }

  size_t total = kBlockedHeaderBytes + nblocks * kDirEntryBytes;
  for (const auto& p : blocks) total += p.payload.size();
  std::vector<uint8_t> out;
  out.reserve(total);
  out.push_back(kFmtBlockedTagged);
  out.push_back(0);  // reserved
  put_u32(out, uint32_t(bs));
  put_u64(out, size);
  put_u32(out, uint32_t(nblocks));
  for (size_t b = 0; b < nblocks; ++b) {
    put_u32(out, uint32_t(blocks[b].payload.size()) |
                     (uint32_t(blocks[b].tag) << kTagShift));
    put_u64(out, checksums[b]);
  }
  for (const auto& p : blocks) out.insert(out.end(), p.payload.begin(), p.payload.end());
  return out;
}

Status decompress(const uint8_t* data, size_t size, std::vector<uint8_t>& out,
                  size_t* corrupt_block, const ResourceLimits* limits) {
  std::vector<size_t> bad;
  const Status s = decode_blocks(data, size, /*tolerant=*/false, out, bad, limits);
  if (s != Status::ok || bad.empty()) return s;
  // The lowest bad index wins, whichever worker saw its failure first.
  if (corrupt_block) *corrupt_block = bad.front();
  return Status::corrupt_block;
}

Status decompress_tolerant(const uint8_t* data, size_t size, std::vector<uint8_t>& out,
                           std::vector<size_t>& bad_blocks,
                           const ResourceLimits* limits) {
  const Status s = decode_blocks(data, size, /*tolerant=*/true, out, bad_blocks, limits);
  if (s != Status::ok) out.clear();
  return s == Status::ok && !bad_blocks.empty() ? Status::corrupt_block : s;
}

Status inspect(const uint8_t* data, size_t size, StreamInfo& info) {
  info = StreamInfo{};
  if (size == 0) return Status::truncated_stream;
  const uint8_t fmt = data[0];
  if (fmt == kModeRaw || fmt == kModeLz) {
    ByteReader hdr(data, size);
    (void)hdr.u8();
    info.raw_size = hdr.u64();
    if (!hdr.ok()) return Status::truncated_stream;
    return Status::ok;
  }
  if (fmt != kFmtBlocked && fmt != kFmtBlockedTagged) return Status::corrupt_stream;
  return parse_blocked(data, size, info);
}

// ---------------------------------------------------------------------------
// Single-block legacy format (lossless formats 0-1): decode only. The encoder
// that wrote it lives in the test oracle (oracle/).
// ---------------------------------------------------------------------------

Status decode_reference(const uint8_t* data, size_t size, std::vector<uint8_t>& out,
                        const ResourceLimits* limits) {
  ByteReader hdr(data, size);
  const uint8_t mode = hdr.u8();
  const uint64_t raw_size = hdr.u64();
  if (!hdr.ok()) return Status::corrupt_stream;
  if (const Status s = size_output(size, raw_size, limits, out); s != Status::ok)
    return s;

  if (mode == kModeRaw) {
    const uint8_t* p = hdr.raw(raw_size);
    if (!p) return Status::truncated_stream;
    std::copy(p, p + raw_size, out.begin());
    return Status::ok;
  }
  if (mode != kModeLz) return Status::corrupt_stream;
  // The legacy encoder wrote the layout of a blocked Huffman body after its
  // 9-byte header: packed code lengths, then the LSB-first token stream.
  DecScratch ds;
  return decode_huffman_body(data + hdr.pos(), size - hdr.pos(), out.data(),
                             size_t(raw_size), ds);
}

}  // namespace sperr::lossless
