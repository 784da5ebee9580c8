#pragma once

// Out-of-core compression of raw binary fields: the paper's motivating
// workloads (500 TB climate archives, multi-TB turbulence snapshots) do not
// fit in memory, but SPERR's chunked design means compression only ever
// needs one chunk resident at a time. These routines stream chunks straight
// from / to disk; peak memory is O(chunk + compressed output) for
// compression and O(chunk + compressed input) for decompression, never
// O(volume).
//
// Raw files are x-fastest arrays of f32 or f64 (the SDRBench layout).
// compress_file runs the same per-chunk step (pipeline::encode_chunk) and
// container writer (pipeline::write_container) as sperr::compress, so it
// writes the same bytes and fills the same Stats; decompress_file decodes
// each chunk through the recovery core that sperr::decompress_tolerant uses.
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
///   "tmp_partial" some but not all payload bytes written
///   "tmp_written" all payload bytes written, not yet fsync()ed
///   "tmp_synced"  temp file durable, rename() not yet issued
///   "renamed"     destination renamed into place, directory not yet synced
///   "dir_synced"  everything durable
/// The torn-write test forks, _exit()s inside the hook at one stage, and
/// asserts the destination is absent or fully valid. Not thread-safe by
/// design (set before spawning writers); never set in production.
using CrashHook = void (*)(const char* stage);
void set_crash_hook(CrashHook hook);

}  // namespace detail

/// Compress the raw field stored at `in_path` (extents `dims`, `precision`
/// bytes per sample: 4 or 8) into a SPERR container at `out_path`.
/// Returns invalid_argument when the file size does not match dims or the
/// field holds a NaN or Inf (nothing is written then, not even the temp
/// file).
Status compress_file(const std::string& in_path, Dims dims, int precision,
                     const Config& cfg, const std::string& out_path,
                     Stats* stats = nullptr);

/// Decompress a SPERR container file back to a raw field file, chunk by
/// chunk. `precision` selects the output sample width (4 or 8).
Status decompress_file(const std::string& in_path, const std::string& out_path,
                       int precision);

/// Fault-isolated variant: same per-chunk verification and recovery
/// semantics as sperr::decompress_tolerant, streaming one decoded chunk to
/// disk at a time. With fail_fast the file is abandoned at the first
/// damaged chunk (lowest index — the loop is serial and in order); with the
/// fill policies every chunk is written, damaged ones patched per `policy`,
/// and the good chunks are bit-identical to a clean decode. `report`, when
/// non-null, receives the same per-chunk verdicts as the in-memory API.
/// `limits` (nullptr = ResourceLimits::defaults()) gates the header-declared
/// output size — here that is *disk* the pre-sized temp file would claim —
/// and every in-memory allocation, exactly as the in-memory decoders do.
Status decompress_file(const std::string& in_path, const std::string& out_path,
                       int precision, Recovery policy,
                       DecodeReport* report = nullptr,
                       const ResourceLimits* limits = nullptr);

}  // namespace sperr::outofcore
