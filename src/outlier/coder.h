#pragma once

// SPECK-inspired outlier coder (paper §IV, Listings 1-3). Records, for every
// data point whose wavelet reconstruction misses the original by more than
// the PWE tolerance t, its exact position and a correction value quantized to
// within t/2. Multi-dimensional inputs are linearized to 1-D before coding
// (paper §IV-C: outlier positions carry essentially no spatial correlation,
// so nothing is lost by flattening); sets are split by repeated binary
// halving of index ranges.
//
// Every output bit is one of: a set-significance test, an outlier sign, or a
// refinement direction — exactly the three bit types §IV-B enumerates.

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace sperr::outlier {

/// One outlier: position within the linearized array and the correction that
/// would restore the original value exactly (corr = x - x_reconstructed).
struct Outlier {
  uint64_t pos = 0;
  double corr = 0.0;

  constexpr bool operator==(const Outlier&) const = default;
};

struct EncodeStats {
  size_t payload_bits = 0;
  size_t num_outliers = 0;
};

/// Encode outlier tuples against tolerance t (> 0) over an array of length
/// `array_len`. Outliers need not be sorted; positions must be unique and
/// < array_len, and each |corr| must exceed t (they would not be outliers
/// otherwise). The returned stream is self-contained (carries t and the top
/// threshold exponent).
std::vector<uint8_t> encode(std::vector<Outlier> outliers,
                            uint64_t array_len,
                            double t,
                            EncodeStats* stats = nullptr);

/// Decode a stream produced by encode(). Reconstructed positions are exact;
/// each reconstructed correction satisfies |corr_decoded - corr_true| <= t/2.
/// The points come back in the coder's discovery order, not by position.
Status decode(const uint8_t* stream,
              size_t nbytes,
              uint64_t array_len,
              std::vector<Outlier>& out);

}  // namespace sperr::outlier
