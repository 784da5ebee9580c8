#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"

namespace sperr::metrics {

namespace {

template <class T>
Quality compare_impl(const T* orig, const T* recon, size_t n) {
  Quality q;
  if (n == 0) return q;

  FieldStats s;
  double sq_sum = 0.0;
  double max_err = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double o = double(orig[i]);
    s.add(o);
    const double e = o - double(recon[i]);
    sq_sum += e * e;
    // A NaN error must stick: std::max would keep the old maximum, and a
    // reconstruction of NaNs would pass any `max_pwe <= t` check.
    const double a = std::fabs(e);
    if (a > max_err || std::isnan(a)) max_err = a;
  }
  q.rmse = std::sqrt(sq_sum / double(n));
  q.max_pwe = max_err;
  q.range = s.range();
  q.sigma = s.stddev();
  const double denom = q.rmse > 0.0 ? q.rmse : 1e-300;
  q.psnr = 20.0 * std::log10(q.range > 0.0 ? q.range / denom : 1.0);
  return q;
}

}  // namespace

Quality compare(const double* orig, const double* recon, size_t n) {
  return compare_impl(orig, recon, n);
}

Quality compare(const float* orig, const float* recon, size_t n) {
  return compare_impl(orig, recon, n);
}

double accuracy_gain(double sigma, double rmse, double bpp) {
  const double floor = sigma * 1e-18;  // beyond double precision anyway
  const double e = std::max(rmse, floor);
  if (sigma <= 0.0) return -bpp;
  return std::log2(sigma / e) - bpp;
}

double snr_db(double sigma, double rmse) {
  if (rmse <= 0.0 || sigma <= 0.0) return 0.0;
  return 20.0 * std::log10(sigma / rmse);
}

double mean_ssim(const double* a, const double* b, Dims dims) {
  constexpr size_t kWin = 8;
  constexpr size_t kStride = 4;

  // Stabilizing constants scaled to the data range of `a`.
  const FieldStats fs = compute_stats(a, dims.total());
  const double range = fs.range() > 0.0 ? fs.range() : 1.0;
  const double c1 = (0.01 * range) * (0.01 * range);
  const double c2 = (0.03 * range) * (0.03 * range);

  double total = 0.0;
  size_t windows = 0;
  for (size_t z = 0; z < dims.z; ++z) {
    for (size_t y0 = 0; y0 + kWin <= dims.y || (y0 == 0 && dims.y < kWin); y0 += kStride) {
      for (size_t x0 = 0; x0 + kWin <= dims.x || (x0 == 0 && dims.x < kWin); x0 += kStride) {
        const size_t wy = std::min(kWin, dims.y - y0);
        const size_t wx = std::min(kWin, dims.x - x0);
        double ma = 0, mb = 0;
        const double cnt = double(wx * wy);
        for (size_t y = y0; y < y0 + wy; ++y)
          for (size_t x = x0; x < x0 + wx; ++x) {
            ma += a[dims.index(x, y, z)];
            mb += b[dims.index(x, y, z)];
          }
        ma /= cnt;
        mb /= cnt;
        double va = 0, vb = 0, cov = 0;
        for (size_t y = y0; y < y0 + wy; ++y)
          for (size_t x = x0; x < x0 + wx; ++x) {
            const double da = a[dims.index(x, y, z)] - ma;
            const double db = b[dims.index(x, y, z)] - mb;
            va += da * da;
            vb += db * db;
            cov += da * db;
          }
        va /= cnt;
        vb /= cnt;
        cov /= cnt;
        const double ssim = ((2 * ma * mb + c1) * (2 * cov + c2)) /
                            ((ma * ma + mb * mb + c1) * (va + vb + c2));
        total += ssim;
        ++windows;
        if (dims.x < kWin) break;
      }
      if (dims.y < kWin) break;
    }
  }
  return windows ? total / double(windows) : 1.0;
}

}  // namespace sperr::metrics
