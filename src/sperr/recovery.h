#pragma once

// Internal fault-isolated decode core. open_tolerant and audit_chunk serve
// every reader: the in-memory decode loop decode_field (behind
// sperr::decompress_tolerant and both sperr::decompress overloads), the
// out-of-core reader (sperr::outofcore::decompress_file), the integrity
// audit (sperr::verify_container), sperr::decompress_lowres and
// sperr::truncate_fixed_rate. Not part of the public API — include
// sperr/sperr.h instead.

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/resource.h"
#include "common/types.h"
#include "sperr/chunker.h"
#include "sperr/header.h"

namespace sperr::detail {

/// Where one chunk's streams live within the recovered inner container.
/// `avail` counts the bytes actually present — less than the directory's
/// advertised extent when the payload was truncated.
struct ChunkSlice {
  size_t offset = 0;
  size_t speck_avail = 0;
  size_t outlier_avail = 0;
  bool intact = false;  ///< full advertised extent present
};

/// A container unwrapped and sliced for per-chunk decoding.
struct OpenedContainer {
  std::vector<uint8_t> inner;
  ContainerHeader hdr;
  std::vector<Chunk> chunks;
  std::vector<ChunkSlice> slices;
};

/// Unwrap the outer wrapper + lossless layer and parse the header and chunk
/// directory. With a fill policy the unwrap is tolerant: corrupt lossless
/// blocks are zero-filled and recorded, and a truncated payload yields its
/// available prefix. Fills the container-level fields of `report` (header_ok,
/// version, lossless_bad_blocks) when non-null. Returns != ok only when
/// nothing is salvageable (wrapper, header, or directory destroyed — or, in
/// fail_fast mode, any lossless-block corruption). `limits` (nullptr =
/// ResourceLimits::defaults()) gates the lossless raw size and the declared
/// chunk count before either sizes an allocation (resource_exhausted).
Status open_tolerant(const uint8_t* stream, size_t nbytes, Recovery policy,
                     OpenedContainer& oc, DecodeReport* report,
                     const ResourceLimits* limits = nullptr);

/// Verify + decode chunk `i` of `oc` into `buf` (chunks[i].dims.total()
/// doubles, caller-zeroed), honoring `policy` for damaged chunks. Pure
/// function of the container bytes — safe to call concurrently for distinct
/// chunks. Returns the chunk's report entry. `intra_threads` feeds the
/// SPECK decoder's lane-parallel mode (output identical at every setting;
/// 1 = serial, 0 = auto) — raise it only when chunks are not already
/// decoding concurrently.
ChunkReport decode_chunk(const OpenedContainer& oc, size_t i, Recovery policy,
                         double* buf, Arena* arena, int intra_threads = 1);

/// Checksum/extent audit of chunk `i` without decoding (verify_container).
ChunkReport audit_chunk(const OpenedContainer& oc, size_t i);

/// The one in-memory decode loop, for double (decompress_tolerant) and
/// float (the f32 decompress) output: open, admit the output field against
/// `limits`, decode every chunk in parallel, scatter it into `out` — or
/// narrow it, for float — and fold the per-chunk verdicts into `report`.
/// Returns report.status.
template <typename T>
Status decode_field(const uint8_t* stream, size_t nbytes, Recovery policy,
                    std::vector<T>& out, Dims& dims, DecodeReport& report,
                    const ResourceLimits* limits);

}  // namespace sperr::detail
