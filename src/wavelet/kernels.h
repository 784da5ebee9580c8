#pragma once

// Alternative wavelet kernels for the §III-A ablation: the paper picks the
// CDF 9/7 "among a large selection of available wavelets" because of its
// rate-distortion track record on scientific data. To make that design
// choice measurable, this module provides two classic alternatives behind
// the same line-transform interface as cdf97:
//   * Haar (orthonormal, 2-tap): the cheapest possible kernel;
//   * LeGall/CDF 5/3 (biorthogonal, the JPEG 2000 lossless kernel), scaled
//     toward unit norm for lossy use.
// The dwt driver accepts a Kernel so the ablation bench can run the whole
// SPERR coefficient path with each. The kernels run batched over SoA tiles
// of lines (see cdf97.h); the scalar per-line forms live in the oracle.

#include <cstddef>

namespace sperr::wavelet {

enum class Kernel {
  cdf97,  ///< the paper's choice (default everywhere in the library)
  cdf53,
  haar,
};

/// Batched forward pass on `nb` lines in an SoA tile (tile[i * nb + j] is
/// sample i of lane j; see cdf97_analysis_batch). Bit-identical per lane to
/// nb per-line passes; `scratch` must hold n * nb doubles. Returns the
/// buffer holding the result (tile or scratch); both are clobbered.
double* batch_analysis(Kernel k, double* tile, size_t n, size_t nb, double* scratch);

/// Exact inverse of batch_analysis (bit-identical to per-line synthesis).
double* batch_synthesis(Kernel k, double* tile, size_t n, size_t nb, double* scratch);

[[nodiscard]] const char* to_string(Kernel k);

}  // namespace sperr::wavelet
