#pragma once

// ZFP-style block codec (clean-room reproduction of Lindstrom,
// "Fixed-Rate Compressed Floating-Point Arrays", TVCG 2014, and the zfp 1.0
// stream layout ideas): 4^d blocks, block-floating-point alignment to a
// common exponent, a reversible integer decorrelating lifting transform,
// negabinary mapping, and embedded group-tested bitplane coding.
//
// One block = 4 (1-D), 16 (2-D) or 64 (3-D) values. Both fixed-accuracy
// (plane cutoff from a tolerance) and fixed-rate (hard bit budget per block)
// termination are supported — the same two modes the real ZFP offers.

#include <cstdint>

#include "common/bitstream.h"

namespace sperr::zfplike {

inline constexpr int kBlockSide = 4;

/// Per-block coding parameters.
struct BlockParams {
  int dims = 3;          ///< 1, 2 or 3
  int minexp = -1074;    ///< smallest coded bitplane exponent (fixed-accuracy)
  size_t maxbits = SIZE_MAX;  ///< hard per-block bit budget (fixed-rate)
};

/// Encode one block of 4^dims doubles (x fastest). Writes at most
/// params.maxbits bits; in fixed-rate use the caller pads to exactly maxbits
/// via pad_block().
void encode_block(WordBitWriter& bw, const double* block, const BlockParams& params);

/// Pad the stream with zero bits so the block occupies exactly `target`
/// bits; `written` is the bit count the block actually used.
void pad_block(WordBitWriter& bw, size_t written, size_t target);

/// Decode one block (4^dims doubles) encoded by encode_block. Reads at most
/// params.maxbits bits; fixed-rate callers must advance the reader to the
/// block boundary themselves (see bits consumed via reader state).
void decode_block(BitReader& br, double* block, const BlockParams& params);

/// Number of values in a block of the given dimensionality.
constexpr int block_points(int dims) {
  return dims == 1 ? 4 : dims == 2 ? 16 : 64;
}

}  // namespace sperr::zfplike
