#pragma once

// Traced replay of sperr::compress (PWE mode) and sperr::decompress.
//
// The replay calls the same public entry points as the library, in the same
// order and with the same thread counts, and wraps each call in a span:
//
//   encode, per chunk:  gather + mean -> wavelet::forward_dwt -> speck::encode
//                       -> sperr.locate (wavelet::inverse_dwt + comparison)
//                       -> outlier::encode
//   then:               header + checksums -> lossless::compress -> wrapper
//   decode:             sperr::unwrap_container -> header, chunk grid
//                       -> per chunk: checksum -> speck::decode
//                       -> wavelet::inverse_dwt -> outlier::decode + apply
//                       -> scatter
//
// Its outputs must equal the library's byte for byte; the benchmark checks
// that on every replay and refuses to report per-layer numbers otherwise.

#include <cstdint>
#include <vector>

#include "sperr/sperr.h"
#include "trace.h"

namespace perfbench {

/// Counts the replay collects where the work happens (per operation).
struct ReplayCounts {
  size_t chunks = 0;
  int threads = 1;                ///< chunk-loop threads of the operation
  uint64_t speck_payload_bits = 0;
  double speck_sorting_s = 0.0;     ///< library per-pass totals (incl. significance scans)
  double speck_refinement_s = 0.0;
  uint64_t outliers = 0;
  uint64_t outlier_bits = 0;
  uint64_t inner_bytes = 0;       ///< container before the lossless pass
  uint64_t container_bytes = 0;
};

/// Traced sperr::compress of f64 data (Mode::pwe only; throws otherwise).
std::vector<uint8_t> traced_compress(Tracer& tr, const double* data, sperr::Dims dims,
                                     const sperr::Config& cfg, ReplayCounts& counts);

/// Traced sperr::decompress to f64.
sperr::Status traced_decompress(Tracer& tr, const uint8_t* stream, size_t nbytes,
                                std::vector<double>& out, sperr::Dims& dims,
                                ReplayCounts& counts);

}  // namespace perfbench
