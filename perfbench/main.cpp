// sperr_perfbench: one workload of the end-to-end SPERR benchmark.
//
//   sperr_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
// Prints human-readable detail as "# " lines, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced replay. Exits 0 only when every output checked out.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "sperr_perfbench: %s\nusage: sperr_perfbench --workload "
               "snapshot_serial|volume_parallel|serve_small [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) known = known || w == opt.workload;
  if (!known) return usage("unknown or missing --workload");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be > 0");

  perfbench::Outcome r;
  try {
    r = perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sperr_perfbench: %s\n", e.what());
    return 1;
  }

  std::string json = "{\"correct\": ";
  bool finite = true;
  std::string metrics;
  for (const perfbench::Metric& m : r.metrics) {
    finite = finite && std::isfinite(m.value);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  if (!finite) std::printf("# FAIL a metric is not a finite number\n");
  const bool correct = finite && r.failed == 0;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("# error_rate %.6g (%llu failed of %llu attempted)\n",
              r.attempted ? double(r.failed) / double(r.attempted) : 0.0,
              (unsigned long long)r.failed, (unsigned long long)r.attempted);
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
