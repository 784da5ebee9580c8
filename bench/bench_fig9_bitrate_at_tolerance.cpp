// Fig. 9 reproduction: how many bits each error-bounded compressor needs to
// satisfy a given PWE tolerance, on the Table II field/level cases. TTHRESH
// is excluded (no error-bounded mode); the paper also excludes MGARD at
// idx = 40 for exceeding the bound — we run it and report whether the bound
// held instead.

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/mgardlike/compressor.h"
#include "baselines/szlike/compressor.h"
#include "baselines/zfplike/compressor.h"
#include "sperr/sperr.h"
#include "support.h"

namespace {

struct Entry {
  double bpp = -1.0;
  bool violated = false;
};

}  // namespace

int main() {
  bench::print_title(
      "Fig. 9: achieved BPP to satisfy a PWE tolerance (Table II cases)");
  std::printf("('!' = achieved max error exceeded the tolerance; '*' = best bpp)\n\n");
  std::printf("%-10s %12s %12s %12s %12s\n", "case", "SPERR", "SZ-like",
              "ZFP-like", "MGARD-like");
  bench::print_rule();

  int sperr_wins = 0, cases_run = 0;
  for (const auto& c : bench::table2_cases()) {
    const auto& field = bench::field_by_label(c.field_label);
    const auto data = bench::load_field(field);
    const double t = sperr::tolerance_from_idx(data.data(), data.size(), c.idx);
    const double npts = double(data.size());

    auto measure = [&](const std::vector<uint8_t>& blob,
                       auto&& decompress_fn) -> Entry {
      std::vector<double> recon;
      sperr::Dims od;
      if (decompress_fn(blob.data(), blob.size(), recon, od) != sperr::Status::ok)
        return {};
      const auto rd = bench::evaluate(data, recon, blob.size());
      return {double(blob.size()) * 8.0 / npts, !(rd.max_pwe <= t)};
    };

    sperr::Config cfg = bench::sperr_config_for(field);
    cfg.tolerance = t;
    const Entry e_sperr = measure(
        sperr::compress(data.data(), field.dims, cfg),
        [](const uint8_t* p, size_t n, std::vector<double>& o, sperr::Dims& d) {
          return sperr::decompress(p, n, o, d);
        });
    const Entry e_sz =
        measure(sperr::szlike::compress(data.data(), field.dims, t),
                sperr::szlike::decompress);
    const Entry e_zfp =
        measure(sperr::zfplike::compress_accuracy(data.data(), field.dims, t),
                sperr::zfplike::decompress);
    const Entry e_mgard =
        measure(sperr::mgardlike::compress(data.data(), field.dims, t),
                sperr::mgardlike::decompress);

    const Entry entries[] = {e_sperr, e_sz, e_zfp, e_mgard};
    double best = 1e300;
    for (const auto& e : entries)
      if (e.bpp > 0 && !e.violated) best = std::min(best, e.bpp);

    std::printf("%-10s", c.abbrev.c_str());
    for (const auto& e : entries) {
      if (e.bpp < 0) {
        std::printf(" %11s ", "n/a");
      } else {
        std::printf(" %10.3f%c%c", e.bpp, e.violated ? '!' : ' ',
                    (!e.violated && e.bpp == best) ? '*' : ' ');
      }
    }
    std::printf("\n");
    ++cases_run;
    if (!e_sperr.violated && e_sperr.bpp == best) ++sperr_wins;
  }
  bench::print_rule();
  std::printf(
      "SPERR wins %d of %d cases.\n"
      "Paper expectation: SPERR uses the fewest bits in all but two cases.\n",
      sperr_wins, cases_run);
  return 0;
}
