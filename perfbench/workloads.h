#pragma once

// The benchmark's workloads (see perfbench/README.md for why each exists).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< reduced sizes, for the benchmark's own smoke test
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ops attempted and failed (every output is checked) plus the metrics. An
/// unfaithful traced replay throws instead: it reports no numbers.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Names accepted by run().
const std::vector<std::string>& workload_names();

/// Run one workload. Human-readable detail goes to stdout as "# " lines.
Outcome run(const Options& opt);

}  // namespace perfbench
