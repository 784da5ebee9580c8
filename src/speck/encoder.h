#pragma once

// SPECK encoder (paper §III-B/C). Encodes wavelet coefficients
// bitplane-by-bitplane with octree (3-D) / quadtree (2-D) set partitioning.
// Differences from the classic algorithm, following the paper:
//   * arbitrary quantization step q (coefficients are pre-scaled by 1/q and
//     integer bitplanes 2^n are coded), giving a dead zone of (-q, q) and a
//     max quantization error of q/2 for coded coefficients;
//   * the whole (transformed) domain is the root set;
//   * the output is embedded: any prefix decodes, enabling the size-bounded
//     mode by simply stopping at a bit budget.
// One engine (encoder.cpp) codes every mode and every plane depth; the
// recursive coder it was derived from lives outside the library as the
// test oracle (oracle/).

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "speck/common.h"

namespace sperr::speck {

/// Cost breakdown of one bitplane. The bit counts are properties of the
/// stream (deterministic, compared in tests); the seconds are wall-clock
/// measurements of this plane's passes.
struct PassTiming {
  int32_t plane = 0;           ///< bitplane n (threshold 2^n)
  double sorting_s = 0.0;      ///< whole sorting pass (includes significance_s)
  double significance_s = 0.0; ///< packed max-plane scans within the sorting pass
  double refinement_s = 0.0;   ///< refinement pass
  uint64_t sorting_bits = 0;   ///< payload bits emitted by the sorting pass
  uint64_t refinement_bits = 0;///< payload bits emitted by the refinement pass
};

struct EncodeStats {
  size_t payload_bits = 0;     ///< bits in the SPECK payload (excl. header)
  size_t planes_coded = 0;     ///< bitplanes fully or partially emitted
  /// Coefficients coded significant: outside the dead zone, or in
  /// size-bounded mode those whose sign bit precedes the budget bit.
  size_t significant_count = 0;

  /// Per-bitplane pass costs, top plane first, one per plane in
  /// planes_coded; in size-bounded mode the bit counts are clipped to the
  /// payload, so they always sum to payload_bits. Feeds
  /// `bench_micro --speck_json`.
  std::vector<PassTiming> passes;

  /// Wall-clock seconds outside the per-plane passes, so that
  /// setup_s + sum(passes) + finish_s accounts for the whole encode call:
  /// setup is the max-|c| scan for the top plane, the set tree lookup in
  /// the shared SetTreeCache (tree_build_s of it when this call built the
  /// tree) and the gather that quantizes every coefficient once, to its
  /// sign and integer magnitude in tree leaf order, while it folds the
  /// sets' max planes; finish is the budget cut, the stream assembly and,
  /// when encode() writes recon_out, the recon export.
  double setup_s = 0.0;
  double tree_build_s = 0.0;  ///< part of setup_s; 0 on a cache hit
  double finish_s = 0.0;
};

/// Encode `coeffs` (dims.total() values, fewer than kMaxCoefficients —
/// larger grids throw std::invalid_argument) with finest step q (> 0).
/// `budget_bits` == 0 means "all bitplanes down to q" (quality-driven / PWE
/// mode); otherwise the stream is truncated at the budget bit (size-bounded
/// mode): whole planes are coded until the stream reaches the budget, and
/// the embedded payload is cut there.
///
/// `recon_out`, when non-null, receives the encoder's coefficient
/// reconstruction (resized to dims.total(), see reconstruct), so the SPERR
/// pipeline can locate outliers without decoding its own stream (paper §V-C
/// stage 3 is just an inverse transform plus a comparison). It equals the
/// decoder's output. A budgeted encode clears it: the reconstruction of a
/// cut stream is what speck::decode returns for that stream.
///
/// `threads` splits the recon export, an element-wise pass over the
/// coefficients, into fixed contiguous lanes (common/threadpool.h run_lanes);
/// the sorting and refinement passes run on the calling thread, so the
/// stream and the recon are identical at every thread count. 0 = one lane
/// per hardware thread; a budgeted encode exports no recon and uses none.
///
/// `arena` (nullptr = the calling thread's tls_arena()) holds the coder
/// state, in a Scope that closes before the call returns: a warm arena
/// serves a steady-state encode without fresh pages.
std::vector<uint8_t> encode(const double* coeffs,
                            Dims dims,
                            double q,
                            size_t budget_bits = 0,
                            EncodeStats* stats = nullptr,
                            std::vector<double>* recon_out = nullptr,
                            int threads = 1,
                            Arena* arena = nullptr);

/// An upper bound on the bytes encode() takes from its arena for a `dims`
/// grid, in any mode: 64-bit leaf words and LSP entries for every
/// coefficient, fewer sets than coefficients, and every bucket holding at
/// most all of them. A caller reserves it (Arena::reserve) so that the
/// coder state and what follows it share one block of a cold arena.
size_t encode_arena_bytes(Dims dims);

/// The recon encode() hands back for an unbudgeted stream of `coeffs` at
/// step q, written to out[0 .. dims.total()): what speck::decode returns for
/// that stream. It reads only the coefficients, so a caller may take `out`
/// from the arena the encode's coder state just released. `threads` is as
/// for encode().
void reconstruct(const double* coeffs, Dims dims, double q, double* out,
                 int threads = 1);

}  // namespace sperr::speck
