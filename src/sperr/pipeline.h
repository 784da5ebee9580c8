#pragma once

// The four-stage SPERR pipeline on one contiguous chunk (paper §V-C):
//   1. forward wavelet transform,
//   2. SPECK coding of the coefficients,
//   3. outlier location (inverse transform + comparison with the input),
//   4. outlier coding.
// Exposed separately from the chunked driver so benchmarks can instrument
// the stage costs and the coefficient/outlier storage balance (Figs. 2-4, 6).

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "outlier/coder.h"
#include "speck/encoder.h"
#include "sperr/config.h"

namespace sperr::pipeline {

/// Why `cfg` cannot compress a `dims` volume, or nullptr when it can: an
/// empty volume, a mode parameter out of range, or a chunk of
/// speck::kMaxCoefficients voxels or more. The shared validation of
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

/// PWE-bounded encode of one chunk: guarantees every reconstructed value is
/// within `tolerance` of the input. `q = q_over_t * tolerance` sets the
/// coefficient/outlier balance. `capture_outliers`, when non-null, receives
/// the located outlier list (positions in linearized order) — used by the
/// Fig. 1 / Fig. 11 analyses.
///
/// All encode/decode entry points take an optional scratch `arena` for
/// their large transient buffers (coefficient copy, wavelet tiles). The
/// chunked drivers pass each OpenMP worker's tls_arena() so steady-state
/// chunk iterations allocate nothing; standalone callers may pass nullptr
/// (the calling thread's arena is used). The arena is rewound, not reset:
/// allocations the caller made before the call survive.
///
/// `intra_chunk_threads` is forwarded to the SPECK coder's deterministic
/// lane-parallel mode (Config::intra_chunk_threads): the emitted streams
/// are byte-identical at every setting, so it is purely a wall-clock knob
/// for single-chunk (or few-chunk) requests. 1 = serial, 0 = auto.
ChunkStream encode_pwe(const double* data, Dims dims, double tolerance,
                       double q_over_t,
                       std::vector<outlier::Outlier>* capture_outliers = nullptr,
                       Arena* arena = nullptr, int intra_chunk_threads = 1);

/// SPECK bit budget of one fixed-rate chunk: bpp * voxels rounded to the
/// nearest bit, at least one byte. encode_chunk and truncate_fixed_rate both
/// take it from here, so a cut lands on the budget a direct encode at the
/// same rate would use.
size_t fixed_rate_budget(double bpp, Dims chunk_dims);

/// Size-bounded encode: the SPECK stream is truncated at `budget_bits`.
/// No outlier correction (no error bound), matching classic SPECK / the
/// paper's fixed-size mode. (The budgeted coder tracks the global position
/// of every emitted bit and runs serial, so it takes no thread knob.)
ChunkStream encode_fixed_rate(const double* data, Dims dims, size_t budget_bits,
                              Arena* arena = nullptr);

/// Average-error-targeted encode (paper §VII): pick the quantization step
/// from the RMSE target via the unit-norm wavelet's error equivalence; all
/// bitplanes down to that step are coded, no outlier pass.
ChunkStream encode_target_rmse(const double* data, Dims dims, double rmse_target,
                               Arena* arena = nullptr, int intra_chunk_threads = 1);

/// The per-chunk step of both compressors (sperr::compress and
/// outofcore::compress_file): reject a chunk holding NaN or Inf (returns
/// invalid_argument with `out` untouched — non-finite samples would poison
/// the transform and quantizer), record the chunk mean, and encode the chunk
/// in cfg.mode: encode_pwe, encode_target_rmse, or encode_fixed_rate at
/// fixed_rate_budget(cfg.bpp, dims).
Status encode_chunk(const double* data, Dims dims, const Config& cfg,
                    ChunkStream& out, Arena* arena = nullptr,
                    int intra_chunk_threads = 1);

/// The one writer of v3 containers (sperr::compress, outofcore::compress_file
/// and truncate_fixed_rate all assemble through it): the header for a `dims`
/// volume of `precision`-byte input with cfg's mode, chunk extents and
/// quality; the chunk directory (stream lengths, XXH64 over each chunk's
/// speck‖outlier bytes, mean); the concatenated streams; and wrap_container
/// with cfg's lossless settings. `streams` are in make_chunks order.
/// `stats`, when non-null, receives the container's Stats, folded over the
/// chunks in index order so the timing sums are reproducible run to run.
std::vector<uint8_t> write_container(const std::vector<ChunkStream>& streams,
                                     Dims dims, uint8_t precision,
                                     const Config& cfg, Stats* stats = nullptr);

/// Multi-level decode (paper §VII): reconstruct the chunk at a coarsened
/// resolution by stopping the inverse wavelet recursion `drop_levels` early
/// and extracting the low-pass box. drop_levels == 0 is full resolution.
/// `coarse_dims` receives the extents of the returned field. The coarse
/// field approximates a box-filtered downsampling of the data (low-pass
/// scaling is divided out).
Status decode_lowres(const uint8_t* speck_stream, size_t speck_len, Dims dims,
                     size_t drop_levels, std::vector<double>& out,
                     Dims& coarse_dims);
Status decode_lowres(const std::vector<uint8_t>& speck_stream, Dims dims,
                     size_t drop_levels, std::vector<double>& out,
                     Dims& coarse_dims);

/// Decode one chunk (either mode) into `out` (dims.total() doubles). The
/// stream views are borrowed, not copied — they only need to stay alive for
/// the duration of the call.
Status decode(const uint8_t* speck_stream, size_t speck_len,
              const uint8_t* outlier_stream, size_t outlier_len, Dims dims,
              double* out, Arena* arena = nullptr, int intra_chunk_threads = 1);

/// Convenience overload over owned streams.
Status decode(const std::vector<uint8_t>& speck_stream,
              const std::vector<uint8_t>& outlier_stream, Dims dims, double* out);

}  // namespace sperr::pipeline
