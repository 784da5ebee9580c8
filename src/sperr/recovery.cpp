// Fault-isolated chunk decoding (the recovery layer behind
// sperr::decompress_tolerant and sperr::verify_container). The paper's
// chunked design makes each chunk an independent stream; container v3
// adds a per-chunk XXH64 and a header self-checksum, so this layer can (1)
// attribute damage to exact chunk indices, (2) decode every intact chunk
// bit-identically to a clean decode, and (3) patch damaged chunks per the
// caller's Recovery policy instead of discarding the whole archive.

#include <algorithm>
#include <cmath>

#include "common/arena.h"
#include "common/byteio.h"
#include "common/checksum.h"
#include "common/timer.h"
#include "sperr/chunker.h"
#include "sperr/header.h"
#include "sperr/pipeline.h"
#include "sperr/recovery.h"
#include "sperr/sperr.h"
#include "wavelet/dwt.h"

#ifdef SPERR_HAVE_OPENMP
#include <omp.h>
#endif

namespace sperr {

namespace detail {

Status open_tolerant(const uint8_t* stream, size_t nbytes, Recovery policy,
                     OpenedContainer& oc, DecodeReport* report,
                     const ResourceLimits* limits) {
  uint8_t version = ContainerHeader::kVersion;
  size_t first_bad = 0;
  std::vector<size_t> bad_blocks;
  // fail_fast reads strictly; every other policy salvages what it can.
  const Status s =
      unwrap_container(stream, nbytes, oc.inner, &first_bad, &version, limits,
                       policy == Recovery::fail_fast ? nullptr : &bad_blocks);
  if (s == Status::corrupt_block) bad_blocks.push_back(first_bad);
  if (report) {
    report->version = version;
    report->lossless_bad_blocks = std::move(bad_blocks);
  }
  if (s != Status::ok) return s;

  ByteReader br(oc.inner.data(), oc.inner.size());
  if (const Status hs = oc.hdr.deserialize(br, version); hs != Status::ok) return hs;

  // Both chunk counts are header-declared: the directory's entry count and
  // the grid the extents imply. Admit both before sizing anything from them
  // (enumerating the grid of a huge-dims/tiny-chunks header is itself a
  // multi-gigabyte allocation).
  const ResourceLimits& rl = effective_limits(limits);
  if (!rl.admits_chunks(oc.hdr.entries.size()) ||
      !rl.admits_chunks(chunk_count_bound(oc.hdr.dims, oc.hdr.chunk_dims)))
    return Status::resource_exhausted;

  oc.chunks = make_chunks(oc.hdr.dims, oc.hdr.chunk_dims);
  if (oc.chunks.size() != oc.hdr.entries.size()) return Status::corrupt_stream;
  if (report) report->header_ok = true;

  // Slice the payload: each chunk's streams start where the previous ones
  // ended, clamped to the bytes actually recovered. The directory lengths are
  // untrusted u64s (v1/v2 carry no header checksum, and a v3 checksum is
  // attacker-computable), so never form `speck_len + outlier_len` or
  // `pos + total` where the sum can wrap: a wrapped total could masquerade as
  // a small intact extent while the advertised lengths stay huge.
  oc.slices.resize(oc.chunks.size());
  size_t pos = br.pos();  // deserialize() read from inner, so pos <= inner.size()
  for (size_t i = 0; i < oc.chunks.size(); ++i) {
    const ChunkEntry& e = oc.hdr.entries[i];
    ChunkSlice& sl = oc.slices[i];
    sl.offset = pos;
    const bool lens_ok = e.speck_len <= UINT64_MAX - e.outlier_len;
    const uint64_t want = lens_ok ? e.total_len() : UINT64_MAX;
    const size_t have = std::min<uint64_t>(want, oc.inner.size() - pos);
    sl.speck_avail = std::min<uint64_t>(e.speck_len, have);
    sl.outlier_avail = have - sl.speck_avail;
    sl.intact = lens_ok && have == want;
    // Saturate at end-of-payload once a chunk overruns it: later chunks then
    // report truncation at the stream tail instead of aliasing earlier
    // payload bytes, and `pos <= inner.size()` holds on every iteration.
    pos = sl.intact ? pos + size_t(want) : oc.inner.size();
  }
  return Status::ok;
}

ChunkReport audit_chunk(const OpenedContainer& oc, size_t i) {
  ChunkReport r;
  const ChunkEntry& e = oc.hdr.entries[i];
  const ChunkSlice& sl = oc.slices[i];
  r.index = i;
  r.offset = sl.offset;
  r.speck_len = e.speck_len;
  r.outlier_len = e.outlier_len;
  if (!sl.intact) {
    r.status = Status::truncated_stream;
    return r;
  }
  if (oc.hdr.has_integrity()) {
    r.checksum_present = true;
    r.checksum_stored = e.checksum;
    r.checksum_computed =
        xxhash64(oc.inner.data() + sl.offset, sl.speck_avail + sl.outlier_avail);
    r.checksum_ok = r.checksum_computed == r.checksum_stored;
    if (!r.checksum_ok) r.status = Status::corrupt_chunk;
  }
  return r;
}

ChunkReport decode_chunk(const OpenedContainer& oc, size_t i, Recovery policy,
                         double* buf, Arena* arena, int intra_threads,
                         size_t drop_levels) {
  Timer timer;
  ChunkReport r = audit_chunk(oc, i);
  const ChunkEntry& e = oc.hdr.entries[i];
  const ChunkSlice& sl = oc.slices[i];
  const Dims cdims = oc.chunks[i].dims;
  const size_t n = cdims.total();
  const uint8_t* sp = oc.inner.data() + sl.offset;
  const uint8_t* op = sp + sl.speck_avail;

  if (!r.damaged()) {
    // An intact slice has avail == advertised; decode from the clamped avail
    // extents regardless so no directory value can size a read.
    const Status cs = pipeline::decode(sp, sl.speck_avail, op, sl.outlier_avail,
                                       cdims, buf, arena, intra_threads, drop_levels);
    if (cs != Status::ok) r.status = cs;  // possible on v1/v2 (no checksums)
  }

  if (r.damaged()) {
    switch (policy) {
      case Recovery::fail_fast:
        std::fill(buf, buf + n, 0.0);  // leave nothing half-decoded behind
        break;
      case Recovery::zero_fill:
        std::fill(buf, buf + n, 0.0);
        r.action = ChunkAction::zeroed;
        break;
      case Recovery::coarse_fill: {
        // Best-effort: decode whatever SPECK prefix survives (the stream is
        // embedded, so any prefix is a coarser encoding). Outlier
        // corrections are skipped — they are not trustworthy here and their
        // energy is within the tolerance anyway. If even the SPECK header is
        // gone, fall back to the directory's chunk-mean DC value.
        bool coarse_ok = false;
        if (sl.speck_avail > 0 &&
            pipeline::decode(sp, sl.speck_avail, nullptr, 0, cdims, buf, arena,
                             intra_threads, drop_levels) == Status::ok) {
          coarse_ok = true;
          for (size_t k = 0; k < n; ++k)
            if (!std::isfinite(buf[k])) {
              coarse_ok = false;
              break;
            }
        }
        if (coarse_ok) {
          r.action = ChunkAction::coarse;
        } else {
          const double dc =
              oc.hdr.has_integrity() && std::isfinite(e.mean) ? e.mean : 0.0;
          std::fill(buf, buf + n, dc);
          r.action = ChunkAction::dc_fill;
        }
        break;
      }
    }
  }
  r.seconds = timer.seconds();
  return r;
}

size_t decode_workers(const OpenedContainer& oc) {
#ifdef SPERR_HAVE_OPENMP
  return std::max<size_t>(std::min<size_t>(omp_get_max_threads(), oc.chunks.size()), 1);
#else
  (void)oc;
  return 1;
#endif
}

int decode_lanes(const OpenedContainer& oc) {
#ifdef SPERR_HAVE_OPENMP
  return oc.chunks.size() == 1 ? omp_get_max_threads() : 1;
#else
  (void)oc;
  return 1;
#endif
}

Status admit_decode(const OpenedContainer& oc, uint64_t field_bytes,
                    uint64_t held_bytes, size_t workers,
                    const ResourceLimits* limits, Reservation& hold) {
  const ResourceLimits& rl = effective_limits(limits);
  const uint64_t working_bytes =
      uint64_t(largest_chunk(oc.hdr.dims, oc.hdr.chunk_dims).total()) *
      sizeof(double) * workers;
  return rl.admits_output(field_bytes) && rl.admits_working(working_bytes) &&
                 hold.acquire(rl.budget, held_bytes + working_bytes)
             ? Status::ok
             : Status::resource_exhausted;
}

Status decode_chunks(const OpenedContainer& oc, Recovery policy,
                     DecodeReport& rep, const ChunkSink& sink, size_t drop_levels) {
  rep.chunks.resize(oc.chunks.size());
  // The decode is identical at every lane count: a pure wall-clock choice.
  const int intra_threads = decode_lanes(oc);

#ifdef SPERR_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic) num_threads(int(decode_workers(oc)))
#endif
  for (size_t i = 0; i < oc.chunks.size(); ++i) {
    Arena& arena = tls_arena();
    try {
      arena.reset();  // may coalesce its blocks into a new one
      double* buf = arena.alloc<double>(oc.chunks[i].dims.total());
      rep.chunks[i] =
          decode_chunk(oc, i, policy, buf, &arena, intra_threads, drop_levels);
      sink(i, buf);
    } catch (const std::bad_alloc&) {
      rep.chunks[i] = audit_chunk(oc, i);
      rep.chunks[i].status = Status::resource_exhausted;
    }
  }

  bool exhausted = false;
  for (const ChunkReport& c : rep.chunks) {
    if (!c.damaged()) continue;
    ++rep.damaged;
    if (c.action != ChunkAction::none) ++rep.recovered;
    exhausted = exhausted || c.status == Status::resource_exhausted;
  }
  // Deterministic attribution: under fail_fast the lowest damaged chunk
  // index wins, no matter which OpenMP worker saw its failure first.
  rep.field_valid = rep.damaged == 0 || (policy != Recovery::fail_fast && !exhausted);
  rep.status = rep.field_valid                 ? Status::ok
               : policy == Recovery::fail_fast ? rep.chunks[rep.first_damaged()].status
                                               : Status::resource_exhausted;
  return rep.status;
}

template <typename T>
Status decode_field(const uint8_t* stream, size_t nbytes, Recovery policy,
                    std::vector<T>& out, Dims& dims, DecodeReport& rep,
                    const ResourceLimits* limits, size_t drop_levels) try {
  rep = DecodeReport{};
  rep.policy = policy;
  Timer timer;
  const auto finish = [&](Status s) {
    rep.status = s;
    rep.seconds = timer.seconds();
    return s;
  };

  OpenedContainer oc;
  if (const Status s = open_tolerant(stream, nbytes, policy, oc, &rep, limits);
      s != Status::ok)
    return finish(s);

  // Along an axis every chunk but the last has the first one's extent. So
  // those two bound the drop at which every chunk halves each axis the same
  // number of times, which tiles their coarse boxes, and chunk i's box lands
  // at the sum of the first chunk's coarse extents before it.
  const Dims first = oc.chunks.front().dims;
  const wavelet::LevelPlan a = wavelet::plan_levels(first);
  const wavelet::LevelPlan b = wavelet::plan_levels(oc.chunks.back().dims);
  size_t drop = drop_levels;
  for (const auto& [la, lb] : {std::pair{a.lx, b.lx}, std::pair{a.ly, b.ly},
                               std::pair{a.lz, b.lz}})
    if (la != lb) drop = std::min({drop, la, lb});
  const Dims box = wavelet::lowpass_box_at(first, drop);
  const auto coarse = [&](const Chunk& c) {
    return Chunk{{c.origin.x / first.x * box.x, c.origin.y / first.y * box.y,
                  c.origin.z / first.z * box.z},
                 wavelet::lowpass_box_at(c.dims, drop)};
  };
  const Chunk last = coarse(oc.chunks.back());
  const Dims out_dims{last.origin.x + last.dims.x, last.origin.y + last.dims.y,
                      last.origin.z + last.dims.z};

  // The header extents size the decoded field and the output: admit both
  // before the resize. Every chunk decodes at full resolution whatever the
  // drop, so the full field bounds the work even when the output is coarse.
  Reservation budget_hold;
  if (admit_decode(oc, uint64_t(oc.hdr.dims.total()) * sizeof(T),
                   uint64_t(out_dims.total()) * sizeof(T), decode_workers(oc), limits,
                   budget_hold) != Status::ok)
    return finish(Status::resource_exhausted);

  // No fill: the chunks' boxes tile the field and every decode_chunk path
  // writes its whole box, so a reused vector keeps no stale value.
  dims = out_dims;
  out.resize(dims.total());
  const auto sink = [&](size_t i, double* buf) {
    scatter_chunk(buf, coarse(oc.chunks[i]), out.data(), dims);
  };
  return finish(decode_chunks(oc, policy, rep, sink, drop));
} catch (const std::bad_alloc&) {
  // Allocations outside the chunk loop (the unwrapped container, the output
  // field) land here; the limits above should have rejected anything this
  // large, but a genuinely out-of-memory machine still gets an answer.
  rep.status = Status::resource_exhausted;
  return Status::resource_exhausted;
}

template Status decode_field(const uint8_t*, size_t, Recovery, std::vector<double>&,
                             Dims&, DecodeReport&, const ResourceLimits*, size_t);
template Status decode_field(const uint8_t*, size_t, Recovery, std::vector<float>&,
                             Dims&, DecodeReport&, const ResourceLimits*, size_t);

}  // namespace detail

Status decompress_tolerant(const uint8_t* stream, size_t nbytes, Recovery policy,
                           std::vector<double>& out, Dims& dims,
                           DecodeReport* report, const ResourceLimits* limits) {
  DecodeReport local;
  return detail::decode_field(stream, nbytes, policy, out, dims,
                              report ? *report : local, limits);
}

Status decompress_tolerant(const uint8_t* stream, size_t nbytes, Recovery policy,
                           std::vector<float>& out, Dims& dims,
                           DecodeReport* report, const ResourceLimits* limits) {
  DecodeReport local;
  return detail::decode_field(stream, nbytes, policy, out, dims,
                              report ? *report : local, limits);
}

Status verify_container(const uint8_t* stream, size_t nbytes,
                        DecodeReport* report, const ResourceLimits* limits) try {
  DecodeReport local;
  DecodeReport& rep = report ? *report : local;
  rep = DecodeReport{};
  rep.policy = Recovery::zero_fill;  // audit everything; never stop early
  Timer timer;

  detail::OpenedContainer oc;
  if (const Status s = detail::open_tolerant(stream, nbytes, Recovery::zero_fill,
                                             oc, &rep, limits);
      s != Status::ok) {
    rep.status = s;
    rep.seconds = timer.seconds();
    return s;
  }

  rep.chunks.resize(oc.chunks.size());
  for (size_t i = 0; i < oc.chunks.size(); ++i) {
    rep.chunks[i] = detail::audit_chunk(oc, i);
    if (rep.chunks[i].damaged()) ++rep.damaged;
  }
  rep.field_valid = false;  // nothing was reconstructed
  rep.status = rep.damaged > 0 ? Status::corrupt_chunk
               : rep.lossless_bad_blocks.empty() ? Status::ok
                                                 : Status::corrupt_block;
  rep.seconds = timer.seconds();
  return rep.status;
} catch (const std::bad_alloc&) {
  if (report) report->status = Status::resource_exhausted;
  return Status::resource_exhausted;
}

}  // namespace sperr
