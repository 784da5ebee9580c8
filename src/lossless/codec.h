#pragma once

// Self-contained lossless byte codec (LZ77 + canonical Huffman, deflate-like
// token alphabet). This plays the role ZSTD plays in the paper: a final
// lossless pass over the concatenated SPECK + outlier bitstreams (paper §V)
// and over the SZ-like baseline's Huffman output (paper §VI-E).
//
// The production path is block-based and parallel: the input is split into
// fixed-size blocks (default 1 MiB, recorded in the stream header), each
// block is tokenized and entropy-coded independently with its own code
// tables, and blocks are (de)coded concurrently under OpenMP. A per-block
// directory carries each block's compressed size, a 2-bit entropy tag
// (raw / Huffman / arithmetic — whichever the exact-cost pricing says is
// smallest for that block), and an XXH64 checksum of its original bytes, so
// a flipped bit is reported as "block b is corrupt" instead of silently
// poisoning the archive. Block encoding is streaming: the matcher announces
// tokens to a sink that feeds the entropy coder's bit writer directly — no
// materialized token array, bounded memory per worker.
//
// The single-shot whole-input format that preceded the block framing
// (formats 0-1) is still decoded: decompress() dispatches on the leading
// format byte to decode_reference, which reads the 9-byte header and hands
// the rest to the token decoder of a blocked Huffman block (the legacy body
// has that layout). Strict and tolerant decoding of the blocked formats share
// one block loop. The legacy encoder lives in the test oracle
// (oracle/oracle.h), where it is the serial baseline in bench_micro
// --lossless_json.
//
// Either path always decodes to exactly the original bytes; when entropy
// coding would expand a block (typical for SPECK's near-random bitplanes)
// that block is stored raw, at no cost beyond its directory entry.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/resource.h"
#include "common/types.h"

namespace sperr::lossless {

/// Per-block entropy tags of the format-3 directory (BlockInfo::mode for
/// tagged streams). Format-2 streams reuse the same numbering via their
/// payload mode byte (raw = 0, Huffman = 1); arithmetic exists only in
/// format 3.
inline constexpr uint8_t kEntropyRaw = 0;
inline constexpr uint8_t kEntropyHuffman = 1;
inline constexpr uint8_t kEntropyArith = 2;

/// Block sizes the encoder writes. Format 3 packs the entropy tag into the
/// top 2 bits of the directory's compressed-size field, so compressed sizes
/// (<= block size) must fit in 30 bits; 256 MiB blocks keep a safe margin.
inline constexpr size_t kMinBlockSize = size_t(1) << 12;
inline constexpr size_t kMaxBlockSize = size_t(1) << 28;

/// The block size compress() uses for a requested EncodeOptions::block_size.
constexpr size_t clamp_block_size(size_t requested) {
  return std::clamp(requested, kMinBlockSize, kMaxBlockSize);
}

/// Knobs for the block-parallel encoder.
struct EncodeOptions {
  /// Block granularity in bytes; see clamp_block_size. Smaller blocks
  /// parallelize and localize corruption better, larger blocks give the
  /// matcher more context (the window is 32 KiB, so gains flatten quickly).
  size_t block_size = size_t(1) << 20;
  /// OpenMP threads for block-parallel coding; 0 = runtime default.
  int num_threads = 0;
};

/// Compress `data` with the block-parallel codec; the result always
/// round-trips through decompress().
std::vector<uint8_t> compress(const uint8_t* data, size_t size,
                              const EncodeOptions& opts = {});

inline std::vector<uint8_t> compress(const std::vector<uint8_t>& data,
                                     const EncodeOptions& opts = {}) {
  return compress(data.data(), data.size(), opts);
}

/// Decompress a buffer produced by compress() or by the legacy single-block
/// encoder.
/// Every block's checksum is verified; on a per-block failure the return is
/// Status::corrupt_block and `*corrupt_block` (when non-null) receives the
/// zero-based index of the first bad block. Framing-level failures return
/// corrupt_stream/truncated_stream and leave `*corrupt_block` untouched.
/// The advertised raw size is gated against `limits` (nullptr = the finite
/// ResourceLimits::defaults()) *before* the output is sized: a tiny stream
/// declaring an implausible raw size is answered resource_exhausted, not a
/// multi-gigabyte allocation.
Status decompress(const uint8_t* data, size_t size, std::vector<uint8_t>& out,
                  size_t* corrupt_block = nullptr,
                  const ResourceLimits* limits = nullptr);

inline Status decompress(const std::vector<uint8_t>& data, std::vector<uint8_t>& out,
                         size_t* corrupt_block = nullptr,
                         const ResourceLimits* limits = nullptr) {
  return decompress(data.data(), data.size(), out, corrupt_block, limits);
}

/// Like decompress(), but keep going past damaged blocks: every block is
/// decoded best-effort, the raw-byte range of any block that fails
/// structural decoding is zero-filled, `bad_blocks` receives the sorted
/// indices of all blocks that failed (structurally or by checksum), and
/// `out` always has the full advertised raw size — so upper layers with
/// their own integrity data can salvage whatever the bad blocks did not
/// cover. A truncated stream with an intact directory marks the missing
/// tail blocks bad instead of rejecting the whole stream. Returns ok when
/// `bad_blocks` is empty, corrupt_block otherwise; damage to the header or
/// directory itself is unrecoverable (corrupt_stream/truncated_stream, with
/// `out` cleared). Reference-framing streams carry no blocks: they decode
/// all-or-nothing exactly as in decompress().
Status decompress_tolerant(const uint8_t* data, size_t size, std::vector<uint8_t>& out,
                           std::vector<size_t>& bad_blocks,
                           const ResourceLimits* limits = nullptr);

/// Decoder of the single-block legacy format (formats 0-1: one serial
/// LZ77+Huffman pass over the whole input, no directory, no checksums).
/// decompress() dispatches such streams here. The raw size is admitted
/// against `limits` before `out` is sized; the body decodes through the
/// blocked format's Huffman token decoder.
Status decode_reference(const uint8_t* data, size_t size, std::vector<uint8_t>& out,
                        const ResourceLimits* limits = nullptr);

/// Parsed view of a compressed stream's framing (no payload decoding).
struct BlockInfo {
  uint64_t offset = 0;     ///< payload offset from the start of the stream
  uint32_t comp_size = 0;  ///< compressed payload bytes (format 2: incl. the
                           ///< mode byte; format 3: the body alone)
  uint64_t raw_size = 0;   ///< decoded bytes this block covers
  uint64_t checksum = 0;   ///< XXH64 of the raw block bytes
  uint8_t mode = 0;        ///< entropy coding: kEntropyRaw / kEntropyHuffman
                           ///< / kEntropyArith (the latter format 3 only)
};

struct StreamInfo {
  bool blocked = false;  ///< true for the block-parallel framings
  bool tagged = false;   ///< true for format 3 (entropy tag in the directory)
  uint64_t raw_size = 0;
  size_t block_size = 0;              ///< 0 for reference streams
  std::vector<BlockInfo> blocks;      ///< empty for reference streams
};

/// Parse framing + block directory without decoding payloads. Used by the
/// block-independence tests and `sperr_cc info`.
Status inspect(const uint8_t* data, size_t size, StreamInfo& info);

}  // namespace sperr::lossless
