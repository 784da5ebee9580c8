#pragma once

// Internal fault-isolated decode core. open_tolerant and audit_chunk serve
// every reader: the one decode chunk loop decode_chunks (behind
// sperr::decompress_tolerant, both sperr::decompress overloads,
// sperr::decompress_lowres and sperr::outofcore::decompress_file), the
// integrity audit (sperr::verify_container) and sperr::truncate_fixed_rate.
// Not part of the public API — include sperr/sperr.h instead.

#include <cstdint>
#include <functional>
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

/// Unwrap the outer wrapper + lossless layer (one unwrap_container call) and
/// parse the header and chunk directory. fail_fast unwraps strictly; a fill
/// policy passes unwrap_container a bad-block list, so corrupt lossless
/// blocks are zero-filled and recorded and a truncated payload yields its
/// available prefix. Fills the container-level fields of `report` (header_ok,
/// version, lossless_bad_blocks) when non-null. Returns != ok only when
/// nothing is salvageable (wrapper, header, or directory destroyed — or, in
/// fail_fast mode, any lossless-block corruption, whose lowest block index
/// is then the one entry of lossless_bad_blocks). `limits` (nullptr =
/// ResourceLimits::defaults()) gates the lossless raw size and the declared
/// chunk count before either sizes an allocation (resource_exhausted).
Status open_tolerant(const uint8_t* stream, size_t nbytes, Recovery policy,
                     OpenedContainer& oc, DecodeReport* report,
                     const ResourceLimits* limits = nullptr);

/// Verify + decode chunk `i` of `oc` into `buf` (chunks[i].dims.total()
/// doubles), honoring `policy` for damaged chunks. Every path writes every
/// value of `buf`, so it needs no initialization. Pure
/// function of the container bytes — safe to call concurrently for distinct
/// chunks. Returns the chunk's report entry. `intra_threads` feeds the
/// SPECK decoder's lane-parallel mode (output identical at every setting;
/// 1 = serial, 0 = auto) — raise it only when chunks are not already
/// decoding concurrently. `drop_levels` >= 1 leaves the chunk's coarse box
/// at the front of `buf`, as pipeline::decode does.
ChunkReport decode_chunk(const OpenedContainer& oc, size_t i, Recovery policy,
                         double* buf, Arena* arena, int intra_threads = 1,
                         size_t drop_levels = 0);

/// Checksum/extent audit of chunk `i` without decoding (verify_container).
ChunkReport audit_chunk(const OpenedContainer& oc, size_t i);

/// Threads decode_chunks runs on: the OpenMP team, at most one per chunk.
size_t decode_workers(const OpenedContainer& oc);

/// SPECK lanes per chunk in decode_chunks: a lone chunk takes the whole
/// OpenMP team as lanes (the chunk loop cannot use it), else 1.
int decode_lanes(const OpenedContainer& oc);

/// The one decode admission. `field_bytes` is the full-resolution field the
/// chunks decode, in output values, whatever the drop: it bounds the
/// declared work. `held_bytes` of output stay in memory (0 when it is a
/// file), and each of `workers` decode threads holds one largest chunk of
/// doubles. Admits them against `limits` and reserves the held output and
/// the scratch from its budget in `hold`; else resource_exhausted.
Status admit_decode(const OpenedContainer& oc, uint64_t field_bytes,
                    uint64_t held_bytes, size_t workers,
                    const ResourceLimits* limits, Reservation& hold);

/// Takes chunk `i`'s decoded doubles, on the worker that decoded them; the
/// buffer is that worker's scratch, so the sink may overwrite it.
using ChunkSink = std::function<void(size_t i, double* buf)>;

/// The one decode chunk loop (decode_field, outofcore::decompress_file):
/// decodes every chunk on decode_workers(oc) threads, hands it to `sink`
/// and fills `report`. fail_fast fails on any damage with the lowest
/// damaged chunk's status; a failed allocation (caught per chunk: an
/// exception may not leave an OpenMP region) marks its chunk
/// resource_exhausted and fails every policy. Returns report.status.
Status decode_chunks(const OpenedContainer& oc, Recovery policy,
                     DecodeReport& report, const ChunkSink& sink,
                     size_t drop_levels = 0);

/// The in-memory decode (decompress, decompress_tolerant, decompress_lowres):
/// open, admit_decode, and decode_chunks into `out`, each worker narrowing
/// its own chunk for float; at `drop_levels` >= 1 it tiles the chunks'
/// coarse boxes, and `dims` receives their extents. Returns report.status.
template <typename T>
Status decode_field(const uint8_t* stream, size_t nbytes, Recovery policy,
                    std::vector<T>& out, Dims& dims, DecodeReport& report,
                    const ResourceLimits* limits, size_t drop_levels = 0);

}  // namespace sperr::detail
