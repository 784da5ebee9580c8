// Climate-archive scenario (paper §I): a large community data set is written
// once and read by thousands of researchers for years — so rate matters more
// than speed, and a point-wise error guarantee is the natural contract with
// downstream scientists.
//
// This example archives several variables of a (synthetic) climate-like
// state at per-variable tolerances, using chunked parallel compression, and
// prints an archive manifest: per-variable tolerance, achieved bits/point,
// reduction factor, and verified max error.

#include <cstdio>
#include <string>
#include <vector>

#include "common/timer.h"
#include "data/synthetic.h"
#include "metrics/metrics.h"
#include "sperr/archive.h"
#include "sperr/sperr.h"

namespace {

struct Variable {
  std::string name;
  std::string generator;
  int idx;  // Table I tolerance label: t = Range / 2^idx
};

}  // namespace

int main() {
  // A small multi-variable "model state". Tolerances differ per variable:
  // prognostic variables that feed restarts get tight bounds, diagnostic
  // ones for visualization get loose bounds.
  const sperr::Dims dims{192, 96, 32};  // lon x lat x level
  const std::vector<Variable> variables = {
      {"pressure", "miranda_pressure", 24},     // restart-grade
      {"temperature", "s3d_temperature", 24},   // restart-grade
      {"u_wind", "miranda_velocity_x", 16},     // analysis-grade
      {"humidity_proxy", "s3d_ch4", 16},        // analysis-grade
      {"aerosol_density", "nyx_velocity_x", 10},  // viz-grade
  };

  sperr::Config cfg;
  cfg.chunk_dims = sperr::Dims{64, 64, 32};  // 64^3-ish chunks, paper §V-B
  std::printf("archiving %zu variables at %s, chunk %s\n\n", variables.size(),
              dims.to_string().c_str(), cfg.chunk_dims.to_string().c_str());
  std::printf("%-16s %6s %12s %10s %12s %14s %8s\n", "variable", "idx",
              "tolerance", "bits/pt", "reduction", "max err / t", "time");

  sperr::archive::Writer archive;
  size_t raw_total = 0;
  for (const auto& var : variables) {
    const auto field = sperr::data::make_field(var.generator, dims);
    cfg.tolerance = sperr::tolerance_from_idx(field.data(), field.size(), var.idx);

    sperr::Timer timer;
    sperr::Stats stats;
    archive.add(var.name, field.data(), dims, cfg, &stats);
    const double secs = timer.seconds();

    const size_t raw = field.size() * sizeof(double);
    raw_total += raw;
    std::printf("%-16s %6d %12.4g %10.2f %11.1fx %14s %7.2fs\n",
                var.name.c_str(), var.idx, cfg.tolerance, stats.bpp,
                double(raw) / double(stats.compressed_bytes), "-", secs);
  }

  const auto blob = archive.finish();
  std::printf("\narchive total: %.1f MB -> %.1f MB (%.1fx), %zu variables in "
              "one bundle\n",
              double(raw_total) / 1048576.0, double(blob.size()) / 1048576.0,
              double(raw_total) / double(blob.size()), archive.count());

  // Trust but verify: reopen the bundle and check every guarantee before
  // the originals would be discarded.
  sperr::archive::Reader reader;
  if (sperr::archive::Reader::open(blob.data(), blob.size(), reader) !=
      sperr::Status::ok) {
    std::fprintf(stderr, "archive reopen FAILED\n");
    return 1;
  }
  for (const auto& var : variables) {
    const auto field = sperr::data::make_field(var.generator, dims);
    const double t = sperr::tolerance_from_idx(field.data(), field.size(), var.idx);
    std::vector<double> recon;
    sperr::Dims od;
    if (reader.extract(var.name, recon, od) != sperr::Status::ok ||
        od != dims) {
      std::fprintf(stderr, "  %s: extraction FAILED\n", var.name.c_str());
      return 1;
    }
    const auto q = sperr::metrics::compare(field.data(), recon.data(), field.size());
    std::printf("verified %-16s max err / t = %.3f (%s)\n", var.name.c_str(),
                q.max_pwe / t, q.max_pwe <= t ? "ok" : "VIOLATED");
    if (!(q.max_pwe <= t)) return 1;
  }
  std::printf("every variable verified within its tolerance.\n");
  return 0;
}
