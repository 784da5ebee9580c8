// Fig. 6 reproduction: serial compression time broken into the four pipeline
// stages — wavelet transform, SPECK coding, outlier locating (inverse
// transform + comparison), outlier coding — across five tolerance levels on
// the Miranda-like Viscosity field. The paper observes: total time grows as
// the tolerance tightens, driven almost entirely by SPECK time; transform
// time is constant; outlier time is small and stable.

#include <cstdio>

#include "sperr/pipeline.h"
#include "sperr/sperr.h"
#include "support.h"

int main() {
  bench::print_title(
      "Fig. 6: serial compression time breakdown (Miranda-like Viscosity)");

  const auto& field = bench::field_by_label("Visc");
  const auto data = bench::load_field(field);
  std::printf("field %s (paper: 384^2 x 256)\n\n", field.dims.to_string().c_str());

  std::printf("%-6s %12s %12s %12s %12s %12s %10s\n", "idx", "transform",
              "SPECK", "locate", "outlier", "total (s)", "outliers");
  bench::print_rule();

  for (const int idx : {10, 20, 30, 40, 50}) {
    sperr::Config cfg;
    cfg.tolerance = sperr::tolerance_from_idx(data.data(), data.size(), idx);
    // Median of 3 runs to stabilize the wall-clock numbers.
    sperr::pipeline::ChunkStream best;
    double best_total = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      auto cs = bench::encode_field(data, field.dims, cfg);
      if (cs.timing.total() < best_total) {
        best_total = cs.timing.total();
        best = std::move(cs);
      }
    }
    std::printf("%-6d %12.4f %12.4f %12.4f %12.4f %12.4f %10zu\n", idx,
                best.timing.transform_s, best.timing.speck_s,
                best.timing.locate_s, best.timing.outlier_s,
                best.timing.total(), best.num_outliers);
  }
  bench::print_rule();
  std::printf(
      "Paper expectation: total grows with idx via SPECK time (more planes,\n"
      "finer precision); transform time constant; outlier counts and coding\n"
      "time stable by design of the q = 1.5t balance.\n");
  return 0;
}
