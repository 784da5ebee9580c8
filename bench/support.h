#pragma once

// Shared harness pieces for the per-figure/table benchmark binaries: the
// canonical set of synthetic stand-in fields (paper §VI-B / Table II), field
// loading, quality evaluation, and table printing.
//
// Grid sizes are scaled down from the paper's (e.g. 96^2 x 64 instead of
// 384^2 x 256, 80^3 instead of 500^3) so the full harness regenerates every
// figure on a laptop in minutes; the fields keep the statistical structure
// that determines compressor behaviour, so curve *shapes* and compressor
// orderings reproduce even though absolute numbers differ.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "metrics/metrics.h"
#include "outlier/coder.h"
#include "sperr/config.h"
#include "sperr/pipeline.h"

namespace bench {

using sperr::Dims;

struct Field {
  std::string label;      ///< short name used in tables (e.g. "Press")
  std::string generator;  ///< sperr::data::make_field name
  Dims dims;
  bool single_precision;  ///< paper precision of the original data set
  /// Chunk extents SPERR should use. Matters for QMCPACK (paper §VI-B):
  /// SPERR compresses the orbital stack per-orbital while the other tools
  /// get one tall volume. A degenerate value (total() <= 1, the Dims
  /// default) means "library default (256^3)".
  Dims sperr_chunk{};
};

/// The nine data fields of the paper's comparison (Fig. 8, Table II).
const std::vector<Field>& paper_fields();

/// Field lookup by label; throws on unknown labels.
const Field& field_by_label(const std::string& label);

/// Generate the field's data (deterministic).
std::vector<double> load_field(const Field& f);

/// A default SPERR config honouring the field's preferred chunking.
sperr::Config sperr_config_for(const Field& f);

/// Encode a whole field as one chunk in cfg's mode through
/// pipeline::encode_chunk, the per-chunk step sperr::compress runs.
/// `outliers`, when non-null, receives the located outliers (PWE mode).
/// Throws on a field holding NaN or Inf.
sperr::pipeline::ChunkStream encode_field(
    const std::vector<double>& data, Dims dims, const sperr::Config& cfg,
    std::vector<sperr::outlier::Outlier>* outliers = nullptr);

/// A (field, tolerance-idx) pair from Table II, e.g. "Press-20".
struct Case {
  std::string abbrev;
  std::string field_label;
  int idx;
};

/// The Table II case list used by Figs. 9, 10, 11.
const std::vector<Case>& table2_cases();

/// One rate-distortion sample.
struct RdPoint {
  double bpp = 0.0;
  double psnr = 0.0;
  double gain = 0.0;  ///< accuracy gain (paper Eq. 2)
  double max_pwe = 0.0;
};

RdPoint evaluate(const std::vector<double>& orig, const std::vector<double>& recon,
                 size_t compressed_bytes);

/// Print a horizontal separator / header helpers for the text tables.
void print_rule(int width = 78);
void print_title(const std::string& title);

}  // namespace bench
