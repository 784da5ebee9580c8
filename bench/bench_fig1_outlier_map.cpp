// Fig. 1 reproduction: outliers show little or no spatial correlation.
//
// The paper renders outlier positions of the Kodak Lighthouse image at three
// q settings (1.3t, 1.5t, 1.7t). We use the synthetic lighthouse stand-in,
// print (a) the outlier percentage, (b) a nearest-neighbour spatial
// statistic — the Clark-Evans ratio R = observed mean NN distance / expected
// mean NN distance under complete spatial randomness (R ~ 1 means random,
// R << 1 clustered, R > 1 dispersed) — and (c) a coarse ASCII density map.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "data/synthetic.h"
#include "sperr/pipeline.h"
#include "support.h"

namespace {

using sperr::Dims;

double clark_evans_ratio(const std::vector<sperr::outlier::Outlier>& outliers,
                         Dims dims) {
  if (outliers.size() < 2) return 1.0;
  // Positions in 2-D.
  std::vector<std::pair<double, double>> pts;
  pts.reserve(outliers.size());
  for (const auto& o : outliers)
    pts.emplace_back(double(o.pos % dims.x), double(o.pos / dims.x));

  // Mean nearest-neighbour distance via a coarse grid (exact enough here).
  std::sort(pts.begin(), pts.end());
  double total = 0.0;
  for (size_t i = 0; i < pts.size(); ++i) {
    double best = 1e300;
    // Scan sorted-by-x neighbours outward until the x gap exceeds best.
    for (size_t j = i + 1; j < pts.size(); ++j) {
      const double dx = pts[j].first - pts[i].first;
      if (dx * dx >= best) break;
      const double dy = pts[j].second - pts[i].second;
      best = std::min(best, dx * dx + dy * dy);
    }
    for (size_t j = i; j-- > 0;) {
      const double dx = pts[i].first - pts[j].first;
      if (dx * dx >= best) break;
      const double dy = pts[i].second - pts[j].second;
      best = std::min(best, dx * dx + dy * dy);
    }
    total += std::sqrt(best);
  }
  const double observed = total / double(pts.size());
  const double density = double(pts.size()) / (double(dims.x) * double(dims.y));
  const double expected = 0.5 / std::sqrt(density);  // CSR expectation
  return observed / expected;
}

void ascii_map(const std::vector<sperr::outlier::Outlier>& outliers, Dims dims) {
  constexpr int kW = 64, kH = 20;
  std::vector<int> cells(kW * kH, 0);
  for (const auto& o : outliers) {
    const size_t x = o.pos % dims.x, y = o.pos / dims.x;
    const int cx = int(x * kW / dims.x), cy = int(y * kH / dims.y);
    ++cells[cy * kW + cx];
  }
  const int peak = *std::max_element(cells.begin(), cells.end());
  const char* shades = " .:-=+*#%@";
  for (int y = 0; y < kH; ++y) {
    std::putchar('|');
    for (int x = 0; x < kW; ++x) {
      const int c = cells[y * kW + x];
      const int level = peak ? std::min(9, c * 10 / (peak + 1)) : 0;
      std::putchar(shades[level]);
    }
    std::printf("|\n");
  }
}

}  // namespace

int main() {
  bench::print_title(
      "Fig. 1: outlier positions are spatially uncorrelated (lighthouse 2-D)");

  const Dims dims{384, 256, 1};
  const auto img = sperr::data::lighthouse_2d(dims);
  // Tolerance around 1/2^9 of the 0..255 range gives the paper's few-percent
  // outlier regime.
  sperr::Config cfg;
  cfg.tolerance = 0.5;

  for (const double q_over_t : {1.3, 1.5, 1.7}) {
    std::vector<sperr::outlier::Outlier> outliers;
    cfg.q_over_t = q_over_t;
    (void)bench::encode_field(img, dims, cfg, &outliers);
    const double pct = 100.0 * double(outliers.size()) / double(dims.total());
    const double r = clark_evans_ratio(outliers, dims);
    std::printf("\nq = %.1ft: %zu outliers (%.2f%%), Clark-Evans R = %.2f %s\n",
                q_over_t, outliers.size(), pct, r,
                r > 0.7 ? "(~random: no exploitable clustering)" : "(clustered)");
    ascii_map(outliers, dims);
  }
  std::printf(
      "\nPaper expectation: outliers appear at effectively random positions at\n"
      "every q — justifying SPERR's choice to linearize to 1-D before coding.\n");
  return 0;
}
