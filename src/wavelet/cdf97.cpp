#include "wavelet/cdf97.h"

#include <algorithm>

namespace sperr::wavelet {

namespace {

// Lifting steps on an SoA tile (sample-major, nb lanes per sample). Each
// mirrors the scalar line kernel in oracle/ exactly: same coefficients, same
// operation order per lane, so results are bit-identical. The lane loops are
// trivially independent and vectorize.

void lift_odd_batch(double* t, size_t n, size_t nb, double c) {
  for (size_t i = 1; i + 1 < n; i += 2) {
    double* xi = t + i * nb;
    const double* xm = t + (i - 1) * nb;
    const double* xp = t + (i + 1) * nb;
    for (size_t j = 0; j < nb; ++j) xi[j] += c * (xm[j] + xp[j]);
  }
  if (n % 2 == 0 && n >= 2) {
    double* xi = t + (n - 1) * nb;
    const double* xm = t + (n - 2) * nb;
    for (size_t j = 0; j < nb; ++j) xi[j] += 2.0 * c * xm[j];
  }
}

void lift_even_batch(double* t, size_t n, size_t nb, double c) {
  if (n >= 2)
    for (size_t j = 0; j < nb; ++j) t[j] += 2.0 * c * t[nb + j];
  for (size_t i = 2; i + 1 < n; i += 2) {
    double* xi = t + i * nb;
    const double* xm = t + (i - 1) * nb;
    const double* xp = t + (i + 1) * nb;
    for (size_t j = 0; j < nb; ++j) xi[j] += c * (xm[j] + xp[j]);
  }
  if (n % 2 == 1 && n >= 3) {
    double* xi = t + (n - 1) * nb;
    const double* xm = t + (n - 2) * nb;
    for (size_t j = 0; j < nb; ++j) xi[j] += 2.0 * c * xm[j];
  }
}

}  // namespace

void deinterleave_batch(const double* t, size_t n, size_t nb, double* out) {
  const size_t na = approx_len(n);
  for (size_t i = 0; i < na; ++i)
    for (size_t j = 0; j < nb; ++j) out[i * nb + j] = t[2 * i * nb + j];
  for (size_t i = 0; i < n - na; ++i)
    for (size_t j = 0; j < nb; ++j)
      out[(na + i) * nb + j] = t[(2 * i + 1) * nb + j];
}

void interleave_batch(const double* t, size_t n, size_t nb, double* out) {
  const size_t na = approx_len(n);
  for (size_t i = 0; i < na; ++i)
    for (size_t j = 0; j < nb; ++j) out[2 * i * nb + j] = t[i * nb + j];
  for (size_t i = 0; i < n - na; ++i)
    for (size_t j = 0; j < nb; ++j)
      out[(2 * i + 1) * nb + j] = t[(na + i) * nb + j];
}

double* cdf97_analysis_batch(double* tile, size_t n, size_t nb, double* scratch) {
  if (n < 2 || nb == 0) return tile;

  lift_odd_batch(tile, n, nb, kAlpha);
  lift_even_batch(tile, n, nb, kBeta);
  lift_odd_batch(tile, n, nb, kGamma);
  lift_even_batch(tile, n, nb, kDelta);
  // Scaling fused into the de-interleave sweep (one multiply per element
  // either way — still bit-identical to scale-then-deinterleave), and the
  // result stays in `scratch` so no copy-back sweep is needed.
  const size_t na = approx_len(n);
  const double inv_zeta = 1.0 / kZeta;
  for (size_t i = 0; i < na; ++i)
    for (size_t j = 0; j < nb; ++j)
      scratch[i * nb + j] = tile[2 * i * nb + j] * kZeta;
  for (size_t i = 0; i < n - na; ++i)
    for (size_t j = 0; j < nb; ++j)
      scratch[(na + i) * nb + j] = tile[(2 * i + 1) * nb + j] * inv_zeta;
  return scratch;
}

double* cdf97_synthesis_batch(double* tile, size_t n, size_t nb, double* scratch) {
  if (n < 2 || nb == 0) return tile;

  // Re-interleave with the inverse scaling fused in; lifting then runs on
  // `scratch`, which holds the result.
  const size_t na = approx_len(n);
  const double inv_zeta = 1.0 / kZeta;
  for (size_t i = 0; i < na; ++i)
    for (size_t j = 0; j < nb; ++j)
      scratch[2 * i * nb + j] = tile[i * nb + j] * inv_zeta;
  for (size_t i = 0; i < n - na; ++i)
    for (size_t j = 0; j < nb; ++j)
      scratch[(2 * i + 1) * nb + j] = tile[(na + i) * nb + j] * kZeta;
  lift_even_batch(scratch, n, nb, -kDelta);
  lift_odd_batch(scratch, n, nb, -kGamma);
  lift_even_batch(scratch, n, nb, -kBeta);
  lift_odd_batch(scratch, n, nb, -kAlpha);
  return scratch;
}

size_t num_levels(size_t n) {
  if (n < 8) return 0;
  size_t log2n = 0;
  while ((size_t(1) << (log2n + 1)) <= n) ++log2n;
  return std::min<size_t>(6, log2n - 2);
}

}  // namespace sperr::wavelet
