#pragma once

// SPECK decoder: replays the encoder's set traversal with significance bits
// coming from the stream, reconstructing coefficients at the centers of
// their refined intervals (mid-riser). Tolerates truncated payloads — any
// prefix of an embedded stream yields a coarser but valid reconstruction.
//
// A significant coefficient is held as the integer K of the bits decoded
// for it so far (its leading 1 at discovery, then one refinement bit per
// pass), which is the reconstruction (K + 0.5) * 2^p * q once plane p is
// the last one applied to it.

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "speck/common.h"

namespace sperr::speck {

struct DecodeStats {
  size_t bits_consumed = 0;
  size_t significant_count = 0;
  bool truncated = false;  ///< stream ended before the last plane finished

  /// Bitplanes from which at least one payload bit was read (the last may
  /// be partial).
  size_t planes_decoded = 0;

  /// Wall-clock seconds, summing to no more than the whole decode call:
  /// setup is the header parse and the set tree lookup in the shared
  /// SetTreeCache (tree_build_s of it when this call built the tree);
  /// sorting and refinement are summed over the planes; finish is the
  /// coefficient export.
  double setup_s = 0.0;
  double tree_build_s = 0.0;  ///< part of setup_s; 0 on a cache hit
  double sorting_s = 0.0;
  double refinement_s = 0.0;
  double finish_s = 0.0;
};

/// Decode a stream produced by speck::encode into `coeffs` (dims.total()
/// doubles, fully overwritten; dead-zone coefficients become 0). Grids of
/// kMaxCoefficients or more are answered corrupt_stream: no encoder
/// produces them.
///
/// `threads` parallelizes the data-parallel parts of the decode — the
/// refinement passes' integer updates and the final coefficient export (the
/// sorting pass runs on one lane: each bit's meaning depends on the bits
/// before it, though it reads them a word at a time). The output is
/// identical at every thread count: each such loop partitions a contiguous
/// array into fixed lanes of element-independent updates, forked only where
/// every lane gets kLaneGrain items (common/threadpool.h run_lanes). 0 = one
/// lane per hardware thread.
///
/// `arena` (nullptr = the calling thread's tls_arena()) holds the LSP and
/// the LIS buckets, in a Scope that closes before the call returns.
Status decode(const uint8_t* stream,
              size_t nbytes,
              Dims dims,
              double* coeffs,
              DecodeStats* stats = nullptr,
              int threads = 1,
              Arena* arena = nullptr);

}  // namespace sperr::speck
