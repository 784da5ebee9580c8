#pragma once

// LZ77 match finder with ring-buffer hash chains (zlib/zstd-style, 32 KiB
// window): lazy one-step evaluation, a nice-length cutoff that stops chain
// walks early, and an adaptive skip heuristic that accelerates through
// incompressible stretches (the longer the current literal run, the larger
// the stride between match searches — SPECK's near-random bitplanes scan at
// close to memcpy speed instead of paying a full chain walk per byte).
//
// The core entry point is lz77_scan(): a streaming pass that announces each
// literal/match decision to a TokenSink the moment it is made, so callers
// (the block codec) can count symbol frequencies or feed an entropy coder
// directly without ever materializing a token array. Literal runs are
// delivered batched (one on_literals() call per run) to keep virtual
// dispatch off the per-byte path. The test oracle (oracle/oracle.h) wraps it
// into a token-vector tokenizer for unit tests and the single-block codec.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sperr::lossless {

// 32 KiB matches the reach of the deflate-style distance code table the
// codec entropy-codes matches with (24577 + 2^13 - 1 = 32768).
inline constexpr size_t kWindowSize = 1u << 15;
inline constexpr size_t kMinMatch = 4;
inline constexpr size_t kMaxMatch = 258;

struct Token {
  // literal when length == 0 (value in `literal`), match otherwise.
  uint32_t length = 0;    ///< kMinMatch..kMaxMatch for matches, 0 for literal
  uint32_t distance = 0;  ///< 1..kWindowSize for matches
  uint8_t literal = 0;
};

/// Receives the parse of lz77_scan() one decision at a time, in input order.
/// Literal runs arrive through on_literals(); the default implementation
/// forwards to on_literal() per byte, so sinks that care about throughput
/// override the batch hook and sinks that don't stay one-method simple.
class TokenSink {
 public:
  virtual ~TokenSink() = default;
  virtual void on_literal(uint8_t byte) = 0;
  virtual void on_match(uint32_t length, uint32_t distance) = 0;
  virtual void on_literals(const uint8_t* bytes, size_t count) {
    for (size_t i = 0; i < count; ++i) on_literal(bytes[i]);
  }
};

/// Reusable hash-chain storage so per-block scans do not reallocate. `head`
/// maps a 4-byte hash to the most recent inserted position; `prev` is a
/// window-sized ring (prev[p & (kWindowSize-1)] holds the chain link written
/// when position p was inserted), so its footprint is fixed at 128 KiB no
/// matter how large the scanned block is.
struct MatchScratch {
  std::vector<int32_t> head;
  std::vector<int32_t> prev;
};

/// Parse `data` with greedy matching plus one-step-lazy evaluation, calling
/// `sink` for every literal run / match in order. Matches never reference
/// bytes before `data` — a scan over a block is self-contained by
/// construction. `data` may be up to 2^31 - 2^16 bytes (block sizes are
/// far below that).
void lz77_scan(const uint8_t* data, size_t size, TokenSink& sink,
               MatchScratch* scratch = nullptr);

}  // namespace sperr::lossless
