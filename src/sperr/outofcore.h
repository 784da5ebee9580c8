#pragma once

// Out-of-core compression of raw binary fields: the paper's motivating
// workloads (500 TB climate archives, multi-TB turbulence snapshots) do not
// fit in memory, but SPERR's chunks are independent. Both routines run the
// in-memory chunk loops, compress_file on Config::num_threads threads and
// decompress_file on the OpenMP team, with each worker reading (pread) or
// writing (pwrite) its own chunk's rows: memory is one chunk per worker plus
// the compressed stream, never O(volume). Raw files are x-fastest arrays of
// f32 or f64 (the SDRBench layout). compress_file writes the bytes and Stats
// of sperr::compress; decompress_file writes the values and reports the
// per-chunk verdicts of sperr::decompress_tolerant.
//
// Output files are written crash-consistently by one staged-file writer
// shared by both directions: bytes go to `<path>.tmp`, the file is
// fsync()ed, rename()d over the destination, and the parent directory
// fsync()ed. A crash at ANY point leaves the destination either
// absent, its previous content, or the complete new content — never a
// torn container (the torn-write crash-point test in test_outofcore.cpp
// kills the writer at every stage boundary and asserts exactly that).

#include <string>

#include "common/resource.h"
#include "common/types.h"
#include "sperr/config.h"

namespace sperr::outofcore {

namespace detail {

/// Test-only crash-point hook for the atomic write path. When set, the
/// writer calls it at each stage boundary, in order:
///   "tmp_open"    temp file created, nothing written yet
///   "tmp_partial" some but not all payload bytes written (half the
///                 container; on decompress, chunk 0's rows, from the
///                 chunk-loop worker that stored them)
///   "tmp_written" all payload bytes written, not yet fsync()ed
///   "tmp_synced"  temp file durable, rename() not yet issued
///   "renamed"     destination renamed into place, directory not yet synced
///   "dir_synced"  everything durable
/// The torn-write test runs a helper process that _exit()s inside the hook
/// at one stage, and asserts the destination is absent or fully valid.
/// Not synchronized: set it before any call; never set in production.
using CrashHook = void (*)(const char* stage);
void set_crash_hook(CrashHook hook);

}  // namespace detail

/// Compress the raw field stored at `in_path` (extents `dims`, `precision`
/// bytes per sample: 4 or 8) into a SPERR container at `out_path`.
/// Returns invalid_argument when the file size does not match dims or the
/// field holds a NaN or Inf, and resource_exhausted when memory runs out
/// (nothing is written then, not even the temp file). With 4-byte input the
/// PWE bound holds for a 4-byte decompress_file as well as an 8-byte one.
Status compress_file(const std::string& in_path, Dims dims, int precision,
                     const Config& cfg, const std::string& out_path,
                     Stats* stats = nullptr);

/// Decompress a SPERR container file back to a raw field file of
/// `precision`-byte samples (4 or 8), with the verdicts of
/// sperr::decompress_tolerant (into `report`, when non-null): fail_fast, the
/// default, decodes every chunk and fails on any damage with the lowest
/// damaged index's status, unlinking the temp file so an existing
/// destination keeps its content; the fill policies patch damaged chunks
/// per `policy`, and the good ones are bit-identical to a clean decode.
/// `limits` (nullptr = ResourceLimits::defaults()) gates the header-declared
/// output size — here the *disk* the pre-sized temp file claims — and the
/// chunks in flight, one largest chunk per worker, which are also reserved
/// from limits->budget.
Status decompress_file(const std::string& in_path, const std::string& out_path,
                       int precision, Recovery policy = Recovery::fail_fast,
                       DecodeReport* report = nullptr,
                       const ResourceLimits* limits = nullptr);

}  // namespace sperr::outofcore
