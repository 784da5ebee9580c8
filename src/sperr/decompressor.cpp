#include "sperr/pipeline.h"
#include "sperr/recovery.h"
#include "sperr/sperr.h"

namespace sperr {

Status decompress(const uint8_t* stream, size_t nbytes, std::vector<double>& out,
                  Dims& dims, const ResourceLimits* limits) {
  // The strict decoder is the tolerant one pinned to fail_fast: every chunk
  // is still verified and decoded, but any damage fails the whole call with
  // the lowest damaged chunk index reported deterministically.
  return decompress_tolerant(stream, nbytes, Recovery::fail_fast, out, dims,
                             nullptr, limits);
}

Status decompress(const uint8_t* stream, size_t nbytes, std::vector<float>& out,
                  Dims& dims, const ResourceLimits* limits) {
  DecodeReport rep;
  return detail::decode_field(stream, nbytes, Recovery::fail_fast, out, dims, rep,
                              limits);
}

Status decompress_lowres(const uint8_t* stream, size_t nbytes, size_t drop_levels,
                         std::vector<double>& out, Dims& coarse_dims,
                         const ResourceLimits* limits) try {
  detail::OpenedContainer oc;
  if (const Status s = detail::open_tolerant(stream, nbytes, Recovery::fail_fast, oc,
                                             nullptr, limits);
      s != Status::ok)
    return s;
  if (oc.chunks.size() != 1) return Status::invalid_argument;

  // The inverse transform works on the full-resolution coefficient grid
  // before coarsening, so the header extents size the working set here even
  // though the returned field is smaller. Admit them first.
  const ResourceLimits& rl = effective_limits(limits);
  const uint64_t grid_bytes = uint64_t(oc.hdr.dims.total()) * sizeof(double);
  Reservation budget_hold;
  if (!rl.admits_output(grid_bytes) || !rl.admits_working(grid_bytes) ||
      !budget_hold.acquire(rl.budget, grid_bytes))
    return Status::resource_exhausted;

  // Verify the chunk's extent and checksum before trusting the stream.
  if (const ChunkReport r = detail::audit_chunk(oc, 0); r.damaged()) return r.status;
  // Outlier corrections live on the full-resolution grid; they do not apply
  // to a coarse reconstruction (their energy is within the tolerance anyway).
  // Decode straight from the container slice — no heap copy of the stream.
  const detail::ChunkSlice& sl = oc.slices[0];
  return pipeline::decode_lowres(oc.inner.data() + sl.offset, sl.speck_avail,
                                 oc.hdr.dims, drop_levels, out, coarse_dims);
} catch (const std::bad_alloc&) {
  return Status::resource_exhausted;
}

}  // namespace sperr
