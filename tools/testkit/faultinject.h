#pragma once

// Deterministic fault injection for robustness testing. Given a byte buffer
// and a table of "slices" (interesting byte ranges — e.g. the per-chunk
// streams of a SPERR container, or the blocks of a lossless stream), a seed
// derives a reproducible set of faults which can then be applied to a copy
// of the buffer. Four fault families model the common storage failure
// modes: flipped bits and corrupted bursts inside a slice, tail truncation,
// slice duplication (an insertion that shifts everything behind it), and
// slice content swaps (reordering). The planner knows nothing about
// container formats — callers supply the slice table. No library code
// calls it: it is test support, built into sperr_testkit.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sperr::faultinject {

/// A byte range of the target buffer that faults may be aimed at.
struct ByteRange {
  size_t offset = 0;
  size_t length = 0;
};

enum class FaultKind : uint8_t {
  bit_flip,         ///< XOR one bit somewhere inside the target slice
  byte_burst,       ///< overwrite `length` bytes of the target slice with noise
  zero_range,       ///< zero `length` bytes of the target slice
  truncate_tail,    ///< drop `length` bytes from the end of the buffer
  duplicate_slice,  ///< re-insert a copy of the target slice right after it
  swap_slices,      ///< exchange the byte contents of slices `target` and `other`
};

struct Fault {
  FaultKind kind = FaultKind::bit_flip;
  uint32_t target = 0;  ///< slice index the fault lands in
  uint32_t other = 0;   ///< swap partner (swap_slices only)
  size_t offset = 0;    ///< byte offset within the target slice
  size_t length = 0;    ///< burst/zero/truncate extent in bytes
  uint8_t mask = 0;     ///< bit_flip XOR mask / burst noise seed
};

/// Human-readable one-liner ("bit_flip slice 3 +17 mask 0x40") for logs.
[[nodiscard]] std::string to_string(const Fault& f);

/// Derive `count` faults from `seed`. Content faults (bit_flip, byte_burst,
/// zero_range) come first and at most one structural fault (truncate_tail,
/// duplicate_slice, swap_slices) is planned, last, so every fault applies at
/// well-defined offsets of the original layout. Zero-length slices are never
/// targeted; the result is empty iff no slice has any bytes.
[[nodiscard]] std::vector<Fault> plan(uint64_t seed, size_t count,
                                      const std::vector<ByteRange>& slices,
                                      size_t buffer_size);

/// Apply a fault plan (built by plan() over the same slice table) to a copy
/// of the buffer. Deterministic: same inputs, same output bytes.
[[nodiscard]] std::vector<uint8_t> apply(const uint8_t* data, size_t size,
                                         const std::vector<ByteRange>& slices,
                                         const std::vector<Fault>& faults);

/// Ground truth for detectors: the indices of slices whose stored bytes the
/// plan changed, moved, or cut (sorted, unique). Computed by applying the
/// plan and diffing each slice region, so it is exact for any fault mix.
[[nodiscard]] std::vector<size_t> damaged_slices(const uint8_t* data, size_t size,
                                                 const std::vector<ByteRange>& slices,
                                                 const std::vector<Fault>& faults);

}  // namespace sperr::faultinject
