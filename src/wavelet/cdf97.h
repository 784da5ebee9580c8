#pragma once

// CDF 9/7 biorthogonal wavelet, lifting implementation (Daubechies &
// Sweldens factorization) with whole-point symmetric boundary handling and
// approximately unit-norm basis scaling, following the QccPack formulation
// the paper borrows (§III-A). Near-orthogonality + unit norm mean the L2
// error injected into coefficients during coding is approximately the L2
// error of the reconstruction — the property SPERR's design leans on.
//
// The routines transform tiles of lines in lockstep (SoA layout, below).
// The analysis output is de-interleaved: approximation (low-pass)
// coefficients occupy the front (n+1)/2 samples of each line, detail
// (high-pass) coefficients the back n/2.

#include <cstddef>

namespace sperr::wavelet {

/// Lifting constants of the CDF 9/7 factorization.
inline constexpr double kAlpha = -1.58613434205992;
inline constexpr double kBeta = -0.0529801185729;
inline constexpr double kGamma = 0.8829110755309;
inline constexpr double kDelta = 0.4435068520439;
inline constexpr double kZeta = 1.1496043988602;  ///< scaling (approx unit norm)

/// Number of approximation coefficients a length-n line produces.
constexpr size_t approx_len(size_t n) { return (n + 1) / 2; }

/// Batched forward pass on `nb` lines of length `n` stored as an SoA tile:
/// tile[i * nb + j] is sample i of line j, so every lifting step is a
/// contiguous, independent sweep over the nb lanes and auto-vectorizes.
/// Performs per lane exactly the operations of the scalar line kernel (the
/// oracle's cdf97_analysis) — output is bit-identical to nb per-line calls.
/// n < 2 is a no-op. `scratch` must hold n * nb doubles.
/// Returns the buffer holding the result (`scratch`, or `tile` for no-op
/// lines); both buffers are clobbered.
double* cdf97_analysis_batch(double* tile, size_t n, size_t nb, double* scratch);

/// Inverse of cdf97_analysis_batch; bit-identical to per-line synthesis.
/// Same result-buffer convention.
double* cdf97_synthesis_batch(double* tile, size_t n, size_t nb, double* scratch);

/// SoA-tile de-interleave / re-interleave (evens to the front lanes-wise),
/// shared by every batched kernel. Writes the permuted tile to `out`
/// (n * nb doubles, no overlap with `tile`).
void deinterleave_batch(const double* tile, size_t n, size_t nb, double* out);
void interleave_batch(const double* tile, size_t n, size_t nb, double* out);

/// Dyadic level policy from the paper: min(6, floor(log2 n) - 2), i.e. no
/// transform for lines shorter than 8 samples.
size_t num_levels(size_t n);

}  // namespace sperr::wavelet
