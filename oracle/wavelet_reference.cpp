// The original per-line wavelet implementation: scalar lifting kernels on
// one contiguous line, and multi-dimensional drivers that copy one strided
// line at a time through them. The library's blocked drivers
// (src/wavelet/dwt.cpp) and batched kernels perform exactly these
// operations per lane, so the outputs are bit-identical; the tests check
// that and bench_micro times the difference.

#include <algorithm>
#include <cmath>

#include "oracle/oracle.h"
#include "wavelet/cdf97.h"
#include "wavelet/dwt.h"

namespace sperr::wavelet {

namespace {

const double kSqrt2 = std::sqrt(2.0);

void deinterleave(double* x, size_t n, double* scratch) {
  const size_t na = approx_len(n);
  for (size_t i = 0; i < na; ++i) scratch[i] = x[2 * i];
  for (size_t i = 0; i < n - na; ++i) scratch[na + i] = x[2 * i + 1];
  std::copy(scratch, scratch + n, x);
}

void interleave(double* x, size_t n, double* scratch) {
  const size_t na = approx_len(n);
  for (size_t i = 0; i < na; ++i) scratch[2 * i] = x[i];
  for (size_t i = 0; i < n - na; ++i) scratch[2 * i + 1] = x[na + i];
  std::copy(scratch, scratch + n, x);
}

// --- CDF 9/7 -----------------------------------------------------------------

// One lifting step on the odd samples: x[i] += c * (x[i-1] + x[i+1]) for odd
// i, with symmetric extension at the right edge when the last sample is odd.
void lift_odd(double* x, size_t n, double c) {
  for (size_t i = 1; i + 1 < n; i += 2) x[i] += c * (x[i - 1] + x[i + 1]);
  if (n % 2 == 0 && n >= 2) x[n - 1] += 2.0 * c * x[n - 2];
}

// One lifting step on the even samples, symmetric extension on both edges.
void lift_even(double* x, size_t n, double c) {
  if (n >= 2) x[0] += 2.0 * c * x[1];
  for (size_t i = 2; i + 1 < n; i += 2) x[i] += c * (x[i - 1] + x[i + 1]);
  if (n % 2 == 1 && n >= 3) x[n - 1] += 2.0 * c * x[n - 2];
}

void scale(double* x, size_t n, double even_factor, double odd_factor) {
  for (size_t i = 0; i < n; i += 2) x[i] *= even_factor;
  for (size_t i = 1; i < n; i += 2) x[i] *= odd_factor;
}

// --- Haar (orthonormal via lifting) ----------------------------------------

void haar_analysis(double* x, size_t n, double* scratch) {
  if (n < 2) return;
  for (size_t i = 1; i < n; i += 2) x[i] -= x[i - 1];        // detail
  for (size_t i = 1; i < n; i += 2) x[i - 1] += 0.5 * x[i];  // mean
  for (size_t i = 0; i < n; i += 2) x[i] *= kSqrt2;
  for (size_t i = 1; i < n; i += 2) x[i] /= kSqrt2;
  deinterleave(x, n, scratch);
}

void haar_synthesis(double* x, size_t n, double* scratch) {
  if (n < 2) return;
  interleave(x, n, scratch);
  for (size_t i = 0; i < n; i += 2) x[i] /= kSqrt2;
  for (size_t i = 1; i < n; i += 2) x[i] *= kSqrt2;
  for (size_t i = 1; i < n; i += 2) x[i - 1] -= 0.5 * x[i];
  for (size_t i = 1; i < n; i += 2) x[i] += x[i - 1];
}

// --- LeGall / CDF 5/3 --------------------------------------------------------

void lift_odd53(double* x, size_t n) {
  for (size_t i = 1; i + 1 < n; i += 2) x[i] -= 0.5 * (x[i - 1] + x[i + 1]);
  if (n % 2 == 0 && n >= 2) x[n - 1] -= x[n - 2];  // symmetric extension
}

void lift_even53(double* x, size_t n) {
  if (n >= 2) x[0] += 0.5 * x[1];
  for (size_t i = 2; i + 1 < n; i += 2) x[i] += 0.25 * (x[i - 1] + x[i + 1]);
  if (n % 2 == 1 && n >= 3) x[n - 1] += 0.5 * x[n - 2];
}

void cdf53_analysis(double* x, size_t n, double* scratch) {
  if (n < 2) return;
  lift_odd53(x, n);
  lift_even53(x, n);
  for (size_t i = 0; i < n; i += 2) x[i] *= kSqrt2;
  for (size_t i = 1; i < n; i += 2) x[i] /= kSqrt2;
  deinterleave(x, n, scratch);
}

void cdf53_synthesis(double* x, size_t n, double* scratch) {
  if (n < 2) return;
  interleave(x, n, scratch);
  for (size_t i = 0; i < n; i += 2) x[i] /= kSqrt2;
  for (size_t i = 1; i < n; i += 2) x[i] *= kSqrt2;
  if (n >= 2) x[0] -= 0.5 * x[1];
  for (size_t i = 2; i + 1 < n; i += 2) x[i] -= 0.25 * (x[i - 1] + x[i + 1]);
  if (n % 2 == 1 && n >= 3) x[n - 1] -= 0.5 * x[n - 2];
  for (size_t i = 1; i + 1 < n; i += 2) x[i] += 0.5 * (x[i - 1] + x[i + 1]);
  if (n % 2 == 0 && n >= 2) x[n - 1] += x[n - 2];
}

// --- Per-line drivers ----------------------------------------------------------

// Apply `fn` (analysis or synthesis) along the x axis for every (y, z) line
// inside box (bx, by, bz) of a grid with full extents `dims`.
template <class Fn>
void transform_x(double* data, Dims dims, Dims box, Fn fn) {
  std::vector<double> scratch(box.x);
  for (size_t z = 0; z < box.z; ++z)
    for (size_t y = 0; y < box.y; ++y)
      fn(data + dims.index(0, y, z), box.x, scratch.data());
}

template <class Fn>
void transform_y(double* data, Dims dims, Dims box, Fn fn) {
  std::vector<double> line(box.y), scratch(box.y);
  for (size_t z = 0; z < box.z; ++z)
    for (size_t x = 0; x < box.x; ++x) {
      for (size_t y = 0; y < box.y; ++y) line[y] = data[dims.index(x, y, z)];
      fn(line.data(), box.y, scratch.data());
      for (size_t y = 0; y < box.y; ++y) data[dims.index(x, y, z)] = line[y];
    }
}

template <class Fn>
void transform_z(double* data, Dims dims, Dims box, Fn fn) {
  std::vector<double> line(box.z), scratch(box.z);
  for (size_t y = 0; y < box.y; ++y)
    for (size_t x = 0; x < box.x; ++x) {
      for (size_t z = 0; z < box.z; ++z) line[z] = data[dims.index(x, y, z)];
      fn(line.data(), box.z, scratch.data());
      for (size_t z = 0; z < box.z; ++z) data[dims.index(x, y, z)] = line[z];
    }
}

}  // namespace

void cdf97_analysis(double* x, size_t n, double* scratch) {
  if (n < 2) return;

  lift_odd(x, n, kAlpha);
  lift_even(x, n, kBeta);
  lift_odd(x, n, kGamma);
  lift_even(x, n, kDelta);
  scale(x, n, kZeta, 1.0 / kZeta);
  deinterleave(x, n, scratch);  // evens (approximation) first, odds after
}

void cdf97_synthesis(double* x, size_t n, double* scratch) {
  if (n < 2) return;

  interleave(x, n, scratch);
  scale(x, n, 1.0 / kZeta, kZeta);
  lift_even(x, n, -kDelta);
  lift_odd(x, n, -kGamma);
  lift_even(x, n, -kBeta);
  lift_odd(x, n, -kAlpha);
}

void line_analysis(Kernel k, double* x, size_t n, double* scratch) {
  switch (k) {
    case Kernel::cdf97: cdf97_analysis(x, n, scratch); return;
    case Kernel::cdf53: cdf53_analysis(x, n, scratch); return;
    case Kernel::haar: haar_analysis(x, n, scratch); return;
  }
}

void line_synthesis(Kernel k, double* x, size_t n, double* scratch) {
  switch (k) {
    case Kernel::cdf97: cdf97_synthesis(x, n, scratch); return;
    case Kernel::cdf53: cdf53_synthesis(x, n, scratch); return;
    case Kernel::haar: haar_synthesis(x, n, scratch); return;
  }
}

void forward_dwt_reference(double* data, Dims dims, Kernel kernel) {
  const LevelPlan plan = plan_levels(dims);
  const auto boxes = lowpass_boxes(dims);
  const auto analysis = [kernel](double* x, size_t n, double* scratch) {
    line_analysis(kernel, x, n, scratch);
  };
  for (size_t l = 0; l < boxes.size(); ++l) {
    const Dims box = boxes[l];
    if (l < plan.lx) transform_x(data, dims, box, analysis);
    if (l < plan.ly) transform_y(data, dims, box, analysis);
    if (l < plan.lz) transform_z(data, dims, box, analysis);
  }
}

void inverse_dwt_reference(double* data, Dims dims, Kernel kernel) {
  const LevelPlan plan = plan_levels(dims);
  const auto boxes = lowpass_boxes(dims);
  const auto synthesis = [kernel](double* x, size_t n, double* scratch) {
    line_synthesis(kernel, x, n, scratch);
  };
  for (size_t l = boxes.size(); l-- > 0;) {
    const Dims box = boxes[l];
    if (l < plan.lz) transform_z(data, dims, box, synthesis);
    if (l < plan.ly) transform_y(data, dims, box, synthesis);
    if (l < plan.lx) transform_x(data, dims, box, synthesis);
  }
}

}  // namespace sperr::wavelet
