#include <algorithm>

#include "common/byteio.h"
#include "speck/common.h"
#include "sperr/pipeline.h"
#include "sperr/recovery.h"
#include "sperr/sperr.h"

namespace sperr {

// Container-level truncation (paper §VII, the embedded property): any prefix
// of a SPECK stream is a valid, coarser encoding, so a fixed-rate container
// can be cut down to a lower rate byte-for-byte — no recompression, no
// access to the original data. Streaming servers use this to serve one
// archive at many rates.
Status truncate_fixed_rate(const uint8_t* stream, size_t nbytes, double new_bpp,
                           std::vector<uint8_t>& out) try {
  if (!(new_bpp > 0.0)) return Status::invalid_argument;

  detail::OpenedContainer oc;
  if (const Status s =
          detail::open_tolerant(stream, nbytes, Recovery::fail_fast, oc, nullptr);
      s != Status::ok)
    return s;
  // Only the fixed-rate mode is safely truncatable: a PWE container's
  // outlier corrections are not embedded, so cutting it would silently void
  // the error guarantee.
  if (oc.hdr.mode != Mode::fixed_rate) return Status::invalid_argument;

  // The cut container keeps the input's extents, chunking and lossless
  // defaults; only its rate drops. v1/v2 input re-wraps as v3.
  Config cfg;
  cfg.mode = Mode::fixed_rate;
  cfg.bpp = std::min(new_bpp, oc.hdr.quality);
  cfg.chunk_dims = oc.hdr.chunk_dims;

  std::vector<pipeline::ChunkStream> cuts(oc.chunks.size());
  for (size_t i = 0; i < oc.chunks.size(); ++i) {
    // The cut gets a fresh checksum, so check the stored one first: a
    // damaged chunk must not come out of a cut vouched for.
    if (const ChunkReport r = detail::audit_chunk(oc, i); r.damaged()) return r.status;
    const detail::ChunkSlice& sl = oc.slices[i];
    const uint8_t* sp = oc.inner.data() + sl.offset;

    // Re-head the SPECK stream with the clipped bit count. Fixed-rate chunks
    // carry no outlier stream.
    ByteReader shr(sp, sl.speck_avail);
    speck::Header shdr;
    if (const Status s = shdr.deserialize(shr); s != Status::ok) return s;
    shdr.nbits = std::min<uint64_t>(
        shdr.nbits, pipeline::fixed_rate_budget(new_bpp, oc.chunks[i].dims));
    const size_t payload_bytes =
        std::min<size_t>((shdr.nbits + 7) / 8, sl.speck_avail - shr.pos());

    std::vector<uint8_t>& cut = cuts[i].speck;
    shdr.serialize(cut);
    cut.insert(cut.end(), sp + shr.pos(), sp + shr.pos() + payload_bytes);
    // The chunk mean carries over (truncation does not change what the
    // data was).
    cuts[i].mean = oc.hdr.entries[i].mean;
  }
  out = pipeline::write_container(cuts, oc.hdr.dims, oc.hdr.precision, cfg);
  return Status::ok;
} catch (const std::bad_alloc&) {
  return Status::resource_exhausted;
}

}  // namespace sperr
