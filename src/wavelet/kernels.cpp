#include "wavelet/kernels.h"

#include <algorithm>
#include <cmath>

#include "wavelet/cdf97.h"

namespace sperr::wavelet {

namespace {

const double kSqrt2 = std::sqrt(2.0);

// --- Batched kernels (SoA tile, lanes innermost; see cdf97.h) ---------------
// Each mirrors its scalar line kernel in oracle/ operation-for-operation per
// lane, so the output is bit-identical to per-line transforms.

double* haar_analysis_batch(double* t, size_t n, size_t nb, double* scratch) {
  if (n < 2 || nb == 0) return t;
  for (size_t i = 1; i < n; i += 2)
    for (size_t j = 0; j < nb; ++j) t[i * nb + j] -= t[(i - 1) * nb + j];
  for (size_t i = 1; i < n; i += 2)
    for (size_t j = 0; j < nb; ++j) t[(i - 1) * nb + j] += 0.5 * t[i * nb + j];
  for (size_t i = 0; i < n; i += 2)
    for (size_t j = 0; j < nb; ++j) t[i * nb + j] *= kSqrt2;
  for (size_t i = 1; i < n; i += 2)
    for (size_t j = 0; j < nb; ++j) t[i * nb + j] /= kSqrt2;
  deinterleave_batch(t, n, nb, scratch);
  return scratch;
}

double* haar_synthesis_batch(double* t, size_t n, size_t nb, double* scratch) {
  if (n < 2 || nb == 0) return t;
  interleave_batch(t, n, nb, scratch);
  std::swap(t, scratch);  // result accumulates in the interleaved buffer
  for (size_t i = 0; i < n; i += 2)
    for (size_t j = 0; j < nb; ++j) t[i * nb + j] /= kSqrt2;
  for (size_t i = 1; i < n; i += 2)
    for (size_t j = 0; j < nb; ++j) t[i * nb + j] *= kSqrt2;
  for (size_t i = 1; i < n; i += 2)
    for (size_t j = 0; j < nb; ++j) t[(i - 1) * nb + j] -= 0.5 * t[i * nb + j];
  for (size_t i = 1; i < n; i += 2)
    for (size_t j = 0; j < nb; ++j) t[i * nb + j] += t[(i - 1) * nb + j];
  return t;
}

void lift_odd53_batch(double* t, size_t n, size_t nb) {
  for (size_t i = 1; i + 1 < n; i += 2)
    for (size_t j = 0; j < nb; ++j)
      t[i * nb + j] -= 0.5 * (t[(i - 1) * nb + j] + t[(i + 1) * nb + j]);
  if (n % 2 == 0 && n >= 2)
    for (size_t j = 0; j < nb; ++j) t[(n - 1) * nb + j] -= t[(n - 2) * nb + j];
}

void lift_even53_batch(double* t, size_t n, size_t nb) {
  if (n >= 2)
    for (size_t j = 0; j < nb; ++j) t[j] += 0.5 * t[nb + j];
  for (size_t i = 2; i + 1 < n; i += 2)
    for (size_t j = 0; j < nb; ++j)
      t[i * nb + j] += 0.25 * (t[(i - 1) * nb + j] + t[(i + 1) * nb + j]);
  if (n % 2 == 1 && n >= 3)
    for (size_t j = 0; j < nb; ++j)
      t[(n - 1) * nb + j] += 0.5 * t[(n - 2) * nb + j];
}

double* cdf53_analysis_batch(double* t, size_t n, size_t nb, double* scratch) {
  if (n < 2 || nb == 0) return t;
  lift_odd53_batch(t, n, nb);
  lift_even53_batch(t, n, nb);
  for (size_t i = 0; i < n; i += 2)
    for (size_t j = 0; j < nb; ++j) t[i * nb + j] *= kSqrt2;
  for (size_t i = 1; i < n; i += 2)
    for (size_t j = 0; j < nb; ++j) t[i * nb + j] /= kSqrt2;
  deinterleave_batch(t, n, nb, scratch);
  return scratch;
}

double* cdf53_synthesis_batch(double* t, size_t n, size_t nb, double* scratch) {
  if (n < 2 || nb == 0) return t;
  interleave_batch(t, n, nb, scratch);
  std::swap(t, scratch);  // result accumulates in the interleaved buffer
  for (size_t i = 0; i < n; i += 2)
    for (size_t j = 0; j < nb; ++j) t[i * nb + j] /= kSqrt2;
  for (size_t i = 1; i < n; i += 2)
    for (size_t j = 0; j < nb; ++j) t[i * nb + j] *= kSqrt2;
  if (n >= 2)
    for (size_t j = 0; j < nb; ++j) t[j] -= 0.5 * t[nb + j];
  for (size_t i = 2; i + 1 < n; i += 2)
    for (size_t j = 0; j < nb; ++j)
      t[i * nb + j] -= 0.25 * (t[(i - 1) * nb + j] + t[(i + 1) * nb + j]);
  if (n % 2 == 1 && n >= 3)
    for (size_t j = 0; j < nb; ++j)
      t[(n - 1) * nb + j] -= 0.5 * t[(n - 2) * nb + j];
  for (size_t i = 1; i + 1 < n; i += 2)
    for (size_t j = 0; j < nb; ++j)
      t[i * nb + j] += 0.5 * (t[(i - 1) * nb + j] + t[(i + 1) * nb + j]);
  if (n % 2 == 0 && n >= 2)
    for (size_t j = 0; j < nb; ++j) t[(n - 1) * nb + j] += t[(n - 2) * nb + j];
  return t;
}

}  // namespace

double* batch_analysis(Kernel k, double* tile, size_t n, size_t nb, double* scratch) {
  switch (k) {
    case Kernel::cdf97: return cdf97_analysis_batch(tile, n, nb, scratch);
    case Kernel::cdf53: return cdf53_analysis_batch(tile, n, nb, scratch);
    case Kernel::haar: return haar_analysis_batch(tile, n, nb, scratch);
  }
  return tile;
}

double* batch_synthesis(Kernel k, double* tile, size_t n, size_t nb, double* scratch) {
  switch (k) {
    case Kernel::cdf97: return cdf97_synthesis_batch(tile, n, nb, scratch);
    case Kernel::cdf53: return cdf53_synthesis_batch(tile, n, nb, scratch);
    case Kernel::haar: return haar_synthesis_batch(tile, n, nb, scratch);
  }
  return tile;
}

const char* to_string(Kernel k) {
  switch (k) {
    case Kernel::cdf97: return "CDF 9/7";
    case Kernel::cdf53: return "CDF 5/3";
    case Kernel::haar: return "Haar";
  }
  return "?";
}

}  // namespace sperr::wavelet
