#pragma once

// SPERR container format.
//
// Outer wrapper (never entropy-coded, so the decoder can bootstrap):
//   u32 magic 'SPRZ' | u8 version | u8 lossless? | u64 inner_len | inner...
// where `inner` is the container below, optionally passed through the
// built-in lossless codec (the paper's final ZSTD pass, §V).
//
// Inner container (version 3):
//   u32 magic 'SPRC' | u8 mode | u8 precision(4|8) | dims 3xu64 |
//   chunk dims 3xu64 | f64 quality (tolerance or bpp) | u32 nchunks |
//   per chunk { u64 speck_len, u64 outlier_len, u64 xxh64, f64 mean } |
//   u64 header_xxh64 | concatenated streams.
// The per-chunk XXH64 covers the chunk's speck‖outlier payload bytes; the
// trailing header checksum covers every header byte before it (magic through
// directory), so damage to the directory itself is detected rather than
// silently mis-slicing the payload. Versions 1–2 used 16-byte directory
// entries (lengths only, no checksums) and remain decodable; the outer
// version byte selects the layout.

#include <cstdint>
#include <vector>

#include "common/byteio.h"
#include "common/types.h"
#include "lossless/codec.h"
#include "sperr/config.h"

namespace sperr {

/// One chunk's directory entry. `checksum` and `mean` exist from container
/// version 3 on (zero for streams read from v1/v2 containers).
struct ChunkEntry {
  uint64_t speck_len = 0;
  uint64_t outlier_len = 0;
  uint64_t checksum = 0;  ///< XXH64 over the chunk's speck‖outlier bytes, seed 0
  double mean = 0.0;      ///< chunk mean of the original input: the DC recovery fallback

  ChunkEntry() = default;
  ChunkEntry(uint64_t sl, uint64_t ol) : speck_len(sl), outlier_len(ol) {}
  bool operator==(const ChunkEntry&) const = default;

  [[nodiscard]] uint64_t total_len() const { return speck_len + outlier_len; }
};

struct ContainerHeader {
  static constexpr uint32_t kOuterMagic = 0x5a525053;  // "SPRZ"
  /// Size of the outer wrapper: magic, version, lossless flag, inner_len.
  static constexpr size_t kOuterBytes = 14;
  static constexpr uint32_t kInnerMagic = 0x43525053;  // "SPRC"
  // Version history: 1 = single-block lossless pass; 2 = block-parallel
  // lossless framing with per-block checksums; 3 = per-chunk XXH64 + chunk
  // means in the directory plus a header self-checksum (docs/FORMAT.md).
  // Decoders accept all three; serialization always writes the current one.
  static constexpr uint8_t kVersion = 3;
  static constexpr uint8_t kMinVersion = 1;

  Mode mode = Mode::pwe;
  uint8_t precision = 8;  ///< bytes per sample of the original input (4 or 8)
  uint8_t version = kVersion;  ///< container version this header was read from
  Dims dims;
  Dims chunk_dims;
  double quality = 0.0;  ///< tolerance (pwe) or target bpp (fixed_rate)
  std::vector<ChunkEntry> entries;  ///< per-chunk directory

  /// True when the directory carries per-chunk checksums and means.
  [[nodiscard]] bool has_integrity() const { return version >= 3; }

  void serialize(std::vector<uint8_t>& out) const;

  /// Parse a header laid out as container version `version` (pass the outer
  /// wrapper's version byte; the default reads the current layout).
  [[nodiscard]] Status deserialize(ByteReader& br, uint8_t version = kVersion);
};

/// Wrap the inner container: apply the lossless pass (if enabled) and
/// prepend the outer header. `opts` controls the lossless codec's block size
/// and thread count (ignored when `lossless` is false).
std::vector<uint8_t> wrap_container(std::vector<uint8_t> inner, bool lossless,
                                    const lossless::EncodeOptions& opts = {});

/// Undo wrap_container; `inner` receives the decoded container bytes.
/// `*version` (if non-null) receives the outer wrapper's version byte.
/// The lossless payload's declared raw size is admitted against `limits`
/// (nullptr = ResourceLimits::defaults()) before the inner buffer is sized;
/// a violation returns Status::resource_exhausted.
///
/// Without `bad_blocks` the read is strict: a payload shorter than its
/// declared length is truncated_stream, and a lossless block that fails
/// its checksum returns Status::corrupt_block with `*corrupt_block` (if
/// non-null) naming the lowest such block. With `bad_blocks` the read is
/// tolerant (lossless::decompress_tolerant): a short payload yields its
/// prefix, corrupt blocks are zero-filled and listed in `*bad_blocks`, and
/// the return is ok unless the wrapper or the lossless framing is destroyed.
Status unwrap_container(const uint8_t* data, size_t size, std::vector<uint8_t>& inner,
                        size_t* corrupt_block = nullptr, uint8_t* version = nullptr,
                        const ResourceLimits* limits = nullptr,
                        std::vector<size_t>* bad_blocks = nullptr);

}  // namespace sperr
