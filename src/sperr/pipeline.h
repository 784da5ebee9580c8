#pragma once

// The four-stage SPERR pipeline on one chunk (paper §V-C), behind one entry
// point for every mode, encode_chunk:
//   1. forward wavelet transform,
//   2. SPECK coding of the coefficients,
//   3. outlier location (inverse transform + comparison with the input),
//   4. outlier coding (stages 3 and 4 in PWE mode only).
// The compressors and the figure benches (Figs. 2-4, 6) run this same step;
// its ChunkStream carries the per-stage times and the stream sizes.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "outlier/coder.h"
#include "speck/encoder.h"
#include "sperr/chunker.h"
#include "sperr/config.h"

namespace sperr::pipeline {

/// Why `cfg` cannot compress a `dims` volume, or nullptr when it can: an
/// empty volume, a mode parameter out of range, a zero extent in
/// chunk_dims, or a chunk of speck::kMaxCoefficients voxels or more. The shared validation of
/// sperr::compress (which throws std::invalid_argument with the reason) and
/// outofcore::compress_file (which returns Status::invalid_argument), run
/// before either reads any input.
const char* config_error(Dims dims, const Config& cfg);

struct ChunkStream {
  std::vector<uint8_t> speck;    ///< SPECK stream (header + payload)
  std::vector<uint8_t> outlier;  ///< outlier stream (empty in fixed-rate mode)
  size_t num_outliers = 0;
  size_t outlier_payload_bits = 0;  ///< bits in the outlier payload (excl. header)
  speck::EncodeStats speck_stats;  ///< coder-internal counters for this chunk
  StageTiming timing;
  double mean = 0.0;  ///< input mean: the directory's DC fallback for coarse_fill recovery
};

/// SPECK bit budget of one fixed-rate chunk: bpp * voxels rounded to the
/// nearest bit, at least one byte. encode_chunk and truncate_fixed_rate both
/// take it from here, so a cut lands on the budget a direct encode at the
/// same rate would use.
size_t fixed_rate_budget(double bpp, Dims chunk_dims);

/// The one per-chunk encoder: compress_chunks runs it for sperr::compress
/// and outofcore::compress_file, and the figure benches call it directly.
/// Gathers `chunk` of the `vol_dims` field `volume` into
/// the coefficient buffer, its only copy of the input; a whole field is
/// Chunk{{0, 0, 0}, vol_dims}. Rejects a chunk holding NaN or Inf (returns
/// invalid_argument with `out` untouched: non-finite samples would poison
/// the transform and quantizer), records the chunk mean and codes the chunk
/// in cfg.mode. pwe codes every bitplane down to q = q_over_t * tolerance,
/// then codes as outliers (at chunk-linear positions) the values the
/// reconstruction misses by more than the tolerance, so every decoded value
/// is within it. target_rmse codes down to a q derived from cfg.rmse through
/// the unit-norm wavelet's error equivalence (paper §VII). fixed_rate cuts
/// the stream at fixed_rate_budget(cfg.bpp, dims) bits, with no error bound.
///
/// `arena` (nullptr = the calling thread's tls_arena()) holds the large
/// transient buffers (coefficients, wavelet tiles, the SPECK coder state and
/// the PWE recon, which reuses the coder state's pages); the chunk loops
/// pass each worker's warm arena, so steady-state chunks allocate nothing
/// there.
/// It is rewound, not reset: allocations the caller made before survive.
///
/// `intra_chunk_threads` feeds the SPECK coder's deterministic lanes
/// (Config::intra_chunk_threads; 1 = serial, 0 = auto), which split its
/// element-wise loops (the encoder's PWE recon export, the decoder's
/// refinement passes and export): the bytes are the same at every setting.
/// The budgeted fixed-rate encode exports no recon, so it uses none.
///
/// `float_output` marks an f32 container, which may be decoded to floats: a
/// value is then also an outlier when the reconstruction rounded to float
/// misses it by more than the tolerance, so the bound holds for the floats
/// the user gets back too. `capture_outliers`, when non-null, receives the
/// located outliers (the Fig. 1 / Fig. 11 analyses).
Status encode_chunk(const double* volume, Dims vol_dims, const Chunk& chunk,
                    const Config& cfg, ChunkStream& out, Arena* arena,
                    int intra_chunk_threads, bool float_output,
                    std::vector<outlier::Outlier>* capture_outliers = nullptr);

/// Where a chunk's samples are, as doubles: in the caller's f64 field, or
/// in a one-chunk copy (`chunk` at the origin). Null `volume`: unreadable.
struct ChunkView {
  const double* volume = nullptr;
  Dims vol_dims;
  Chunk chunk;
};

/// Says where chunk `c` is; a copy goes in `arena`, the worker's arena.
using ChunkSource = std::function<ChunkView(const Chunk& c, Arena& arena)>;

/// The one encode chunk loop (sperr::compress, outofcore::compress_file):
/// codes every chunk `source` yields with encode_chunk on cfg.num_threads
/// OpenMP threads (0 = the OpenMP default) and writes the container of
/// `precision`-byte input into `out`. Else returns the lowest failing
/// chunk's status: invalid_argument (NaN or Inf), truncated_stream
/// (unreadable) or resource_exhausted (each chunk catches its own
/// std::bad_alloc: an exception may not leave an OpenMP region).
Status compress_chunks(Dims dims, const Config& cfg, uint8_t precision,
                       const ChunkSource& source, std::vector<uint8_t>& out,
                       Stats* stats);

/// The one writer of v3 containers (compress_chunks and truncate_fixed_rate
/// both assemble through it): the header for a `dims` volume of
/// `precision`-byte input with cfg's mode, chunk extents and
/// quality; the chunk directory (stream lengths, XXH64 over each chunk's
/// speck‖outlier bytes, mean); the concatenated streams; and wrap_container
/// with cfg's lossless settings. `streams` are in make_chunks order.
/// `stats`, when non-null, receives the container's Stats, folded over the
/// chunks in index order so the timing sums are reproducible run to run.
std::vector<uint8_t> write_container(const std::vector<ChunkStream>& streams,
                                     Dims dims, uint8_t precision,
                                     const Config& cfg, Stats* stats = nullptr);

/// Decode one chunk (any mode) into `out` (dims.total() doubles). The
/// stream views are borrowed, not copied — they only need to stay alive for
/// the duration of the call. `arena` and `intra_chunk_threads` are as for
/// encode_chunk. `drop_levels` >= 1 (paper §VII) stops the inverse that many
/// levels early and packs the low-pass box, lowpass_box_at(dims, drop_levels),
/// into the front of `out` with its DC gain divided out; outliers are skipped.
Status decode(const uint8_t* speck_stream, size_t speck_len,
              const uint8_t* outlier_stream, size_t outlier_len, Dims dims,
              double* out, Arena* arena = nullptr, int intra_chunk_threads = 1,
              size_t drop_levels = 0);

}  // namespace sperr::pipeline
