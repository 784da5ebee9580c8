// Fig. 8 reproduction: rate-distortion (accuracy gain vs bitrate) for five
// compressors on nine data fields. Tolerance-driven compressors (SPERR,
// SZ-like, ZFP-like, MGARD-like) sweep PWE tolerances t = Range/2^idx;
// TTHRESH-like takes PSNR targets 6.02*idx (the paper's Eq. translation).
//
// Following the paper's §VI-C protocol:
//  * a TTHRESH series is terminated once more bits stop reducing error;
//  * an MGARD point that exceeds its tolerance is flagged (the paper
//    terminates those runs);
//  * TTHRESH is skipped on QMCPACK (it failed on that set in the paper).

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/mgardlike/compressor.h"
#include "baselines/szlike/compressor.h"
#include "baselines/tthreshlike/compressor.h"
#include "baselines/zfplike/compressor.h"
#include "sperr/sperr.h"
#include "support.h"

namespace {

constexpr double kDbPerBit = 6.02059991;  // 20*log10(2)

struct Point {
  int idx;
  bench::RdPoint rd;
  bool bound_violated = false;
};

void print_series(const char* name, const std::vector<Point>& pts,
                  const char* note = nullptr) {
  std::printf("  %-10s", name);
  if (pts.empty()) {
    std::printf(" (skipped%s%s)\n", note ? ": " : "", note ? note : "");
    return;
  }
  std::printf(" idx:   ");
  for (const auto& p : pts) std::printf("%8d", p.idx);
  std::printf("\n  %-10s bpp:   ", "");
  for (const auto& p : pts) std::printf("%8.3f", p.rd.bpp);
  std::printf("\n  %-10s gain:  ", "");
  for (const auto& p : pts)
    std::printf("%7.2f%c", p.rd.gain, p.bound_violated ? '!' : ' ');
  std::printf("\n");
  if (note) std::printf("  %-10s note: %s\n", "", note);
}

}  // namespace

int main() {
  bench::print_title(
      "Fig. 8: rate-distortion (accuracy gain vs BPP) — five compressors, nine fields");
  std::printf("('!' marks a point whose achieved max error exceeded the tolerance)\n");

  for (const auto& field : bench::paper_fields()) {
    const auto data = bench::load_field(field);
    std::vector<int> levels = field.single_precision
                                  ? std::vector<int>{2, 5, 10, 15, 20, 25, 30}
                                  : std::vector<int>{2, 5, 10, 20, 30, 40, 50};

    std::printf("\n=== %s (%s, %s precision) ===\n", field.label.c_str(),
                field.dims.to_string().c_str(),
                field.single_precision ? "single" : "double");

    // SPERR.
    std::vector<Point> sperr_pts;
    for (const int idx : levels) {
      sperr::Config cfg = bench::sperr_config_for(field);
      cfg.tolerance = sperr::tolerance_from_idx(data.data(), data.size(), idx);
      const auto blob = sperr::compress(data.data(), field.dims, cfg);
      std::vector<double> recon;
      sperr::Dims od;
      if (sperr::decompress(blob.data(), blob.size(), recon, od) != sperr::Status::ok)
        continue;
      Point p{idx, bench::evaluate(data, recon, blob.size())};
      p.bound_violated = !(p.rd.max_pwe <= cfg.tolerance);
      sperr_pts.push_back(p);
    }
    print_series("SPERR", sperr_pts);

    // SZ-like.
    std::vector<Point> sz_pts;
    for (const int idx : levels) {
      const double t = sperr::tolerance_from_idx(data.data(), data.size(), idx);
      const auto blob = sperr::szlike::compress(data.data(), field.dims, t);
      std::vector<double> recon;
      sperr::Dims od;
      if (sperr::szlike::decompress(blob.data(), blob.size(), recon, od) !=
          sperr::Status::ok)
        continue;
      Point p{idx, bench::evaluate(data, recon, blob.size())};
      p.bound_violated = !(p.rd.max_pwe <= t);
      sz_pts.push_back(p);
    }
    print_series("SZ-like", sz_pts);

    // ZFP-like (fixed accuracy).
    std::vector<Point> zfp_pts;
    for (const int idx : levels) {
      const double t = sperr::tolerance_from_idx(data.data(), data.size(), idx);
      const auto blob = sperr::zfplike::compress_accuracy(data.data(), field.dims, t);
      std::vector<double> recon;
      sperr::Dims od;
      if (sperr::zfplike::decompress(blob.data(), blob.size(), recon, od) !=
          sperr::Status::ok)
        continue;
      Point p{idx, bench::evaluate(data, recon, blob.size())};
      p.bound_violated = !(p.rd.max_pwe <= t);
      zfp_pts.push_back(p);
    }
    print_series("ZFP-like", zfp_pts);

    // MGARD-like: terminate the series once the bound is exceeded (paper
    // protocol for offending runs).
    std::vector<Point> mgard_pts;
    for (const int idx : levels) {
      const double t = sperr::tolerance_from_idx(data.data(), data.size(), idx);
      const auto blob = sperr::mgardlike::compress(data.data(), field.dims, t);
      std::vector<double> recon;
      sperr::Dims od;
      if (sperr::mgardlike::decompress(blob.data(), blob.size(), recon, od) !=
          sperr::Status::ok)
        continue;
      Point p{idx, bench::evaluate(data, recon, blob.size())};
      p.bound_violated = !(p.rd.max_pwe <= t);
      mgard_pts.push_back(p);
      if (p.bound_violated) break;
    }
    print_series("MGARD-like", mgard_pts);

    // TTHRESH-like: PSNR targets; stop once extra bits stop buying quality.
    if (field.label == "QMC") {
      print_series("TTHRESH", {}, "paper: TTHRESH did not finish on QMCPACK");
    } else {
      std::vector<Point> tth_pts;
      double prev_gain = -1e300;
      for (const int idx : levels) {
        const double target = kDbPerBit * idx;
        const auto blob =
            sperr::tthreshlike::compress(data.data(), field.dims, target);
        std::vector<double> recon;
        sperr::Dims od;
        if (sperr::tthreshlike::decompress(blob.data(), blob.size(), recon, od) !=
            sperr::Status::ok)
          continue;
        Point p{idx, bench::evaluate(data, recon, blob.size())};
        if (p.rd.gain < prev_gain - 1.0) break;  // bits no longer buy quality
        prev_gain = std::max(prev_gain, p.rd.gain);
        tth_pts.push_back(p);
      }
      print_series("TTHRESH", tth_pts);
    }
  }

  std::printf(
      "\nPaper expectation: curves rise at low rates, then plateau (each extra\n"
      "bit halves the error). SPERR leads at mid-to-high rates (> 2 BPP) and\n"
      "stays competitive below 1 BPP; TTHRESH is strongest only at low rates.\n");
  return 0;
}
