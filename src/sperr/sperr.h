#pragma once

// Public API of the SPERR reproduction: lossy compression of structured
// 1/2/3-D scientific data with either a maximum point-wise error (PWE)
// guarantee or a size bound.
//
// Quick start:
//
//   sperr::Config cfg;
//   cfg.mode = sperr::Mode::pwe;
//   cfg.tolerance = 1e-3;                       // every value within 1e-3
//   auto blob = sperr::compress(field.data(), {256, 256, 256}, cfg);
//
//   std::vector<double> recon;
//   sperr::Dims dims;
//   sperr::decompress(blob.data(), blob.size(), recon, dims);
//
// Large volumes are cut into chunks (cfg.chunk_dims, default 128^3; the paper
// uses 256^3) that are compressed independently in parallel with OpenMP
// (paper §III-D). The final container is passed through a built-in lossless
// codec (paper §V).

#include <cstdint>
#include <vector>

#include "common/resource.h"
#include "common/types.h"
#include "sperr/config.h"

namespace sperr {

/// Compress a double-precision field of the given extents.
/// For mode == pwe, cfg.tolerance must be > 0; for fixed_rate, cfg.bpp > 0.
/// `stats`, when non-null, receives size/outlier/timing instrumentation.
std::vector<uint8_t> compress(const double* data, Dims dims, const Config& cfg,
                              Stats* stats = nullptr);

/// Single-precision overload (each chunk is widened to double as it is coded,
/// with no whole-field copy; the container records the input precision). In PWE mode the bound
/// holds for a single-precision decompress() as well as a double one.
std::vector<uint8_t> compress(const float* data, Dims dims, const Config& cfg,
                              Stats* stats = nullptr);

/// Decompress a container produced by compress(). `out` is resized; `dims`
/// receives the original extents. Every decoder below writes each value of
/// `out` on success and leaves its contents unspecified on a non-ok return.
///
/// Every decoder below has a double and a float overload, whatever the
/// container's precision. A float decode is the double decode rounded to
/// float bit for bit, but each worker narrows its own chunk, so no double
/// field is ever held: the output costs 4 bytes per value. In PWE mode the
/// bound holds for the floats of an f32 container.
///
/// Every decode entry point below takes an optional `limits`
/// (common/resource.h): header-declared resource needs — output bytes,
/// lossless raw size, chunk counts — are admitted against it *before* any
/// allocation is sized from them, and a violation returns
/// Status::resource_exhausted. nullptr means ResourceLimits::defaults(),
/// which is finite: decoding fully untrusted bytes is safe by default, and
/// unbounded decoding requires opting in via ResourceLimits::unlimited().
Status decompress(const uint8_t* stream, size_t nbytes, std::vector<double>& out,
                  Dims& dims, const ResourceLimits* limits = nullptr);
Status decompress(const uint8_t* stream, size_t nbytes, std::vector<float>& out,
                  Dims& dims, const ResourceLimits* limits = nullptr);

/// Fault-isolated decompression. Chunks are independent streams and v3
/// containers checksum each one, so a damaged archive is salvageable: every
/// chunk is verified (XXH64 over its speck+outlier bytes) and decoded
/// independently, and `policy` decides what happens to damaged chunks —
/// fail_fast mirrors decompress() (error out, deterministically reporting
/// the lowest damaged chunk index), zero_fill and coarse_fill patch the
/// damaged region and keep going, so the N−1 good chunks come back
/// bit-identical to a clean decode. `report`, when non-null, receives the
/// per-chunk verdicts (status, checksum comparison, byte offsets, timing).
///
/// Returns ok when the output field is usable under the chosen policy (for
/// the fill policies that includes recovered fields — inspect
/// report->damaged for whether anything was patched); returns an error only
/// when nothing could be recovered (wrapper/header/directory destroyed, or
/// fail_fast met damage). Works on v1/v2 containers too, where only
/// structural damage (bad lengths, truncation) is detectable.
Status decompress_tolerant(const uint8_t* stream, size_t nbytes, Recovery policy,
                           std::vector<double>& out, Dims& dims,
                           DecodeReport* report = nullptr,
                           const ResourceLimits* limits = nullptr);
Status decompress_tolerant(const uint8_t* stream, size_t nbytes, Recovery policy,
                           std::vector<float>& out, Dims& dims,
                           DecodeReport* report = nullptr,
                           const ResourceLimits* limits = nullptr);

/// Integrity audit without reconstruction: unwrap the lossless layer, check
/// the header self-checksum, and verify every chunk's XXH64. Much cheaper
/// than a decode (hashing only). Returns ok for a fully intact archive;
/// corrupt_chunk when any chunk fails (all chunks are always audited —
/// per-chunk verdicts land in `report`). v1/v2 containers verify lengths
/// only (checksum_present = false in their chunk reports).
Status verify_container(const uint8_t* stream, size_t nbytes,
                        DecodeReport* report = nullptr,
                        const ResourceLimits* limits = nullptr);

/// Multi-resolution decompression (paper §VII): reconstruct the field at a
/// coarsened resolution by stopping each chunk's inverse wavelet recursion
/// `drop_levels` early — each dropped level roughly halves every
/// transformed axis — and tiling the chunks' coarse boxes into a field of
/// `coarse_dims`. The drop is clamped to the deepest at which every chunk
/// halves each axis equally (a 200-wide axis cut 128 + 72 allows 4, not 5).
/// Coarse values skip the outlier corrections, which live on the fine grid;
/// drop_levels == 0 is decompress(), corrections and PWE bound included.
/// Every chunk still decodes at full resolution, so `limits` admits the
/// full field's bytes whatever the drop.
Status decompress_lowres(const uint8_t* stream, size_t nbytes, size_t drop_levels,
                         std::vector<double>& out, Dims& coarse_dims,
                         const ResourceLimits* limits = nullptr);
Status decompress_lowres(const uint8_t* stream, size_t nbytes, size_t drop_levels,
                         std::vector<float>& out, Dims& coarse_dims,
                         const ResourceLimits* limits = nullptr);

/// Truncate a fixed-rate container to a lower bitrate without recompressing
/// (paper §VII: the SPECK stream is embedded, so any prefix decodes). Only
/// fixed-rate containers are truncatable — a PWE container's outlier
/// corrections are not embedded, so cutting one would void its guarantee
/// (returns invalid_argument). The result is a valid container at
/// ~new_bpp; requesting a rate above the stored one is a no-op copy.
Status truncate_fixed_rate(const uint8_t* stream, size_t nbytes, double new_bpp,
                           std::vector<uint8_t>& out);

/// Table I translation: tolerance t = Range / 2^idx of the given field.
double tolerance_from_idx(const double* data, size_t n, int idx);
double tolerance_from_idx(const float* data, size_t n, int idx);

}  // namespace sperr
