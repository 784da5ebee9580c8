#include "replay.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include <omp.h>

#include "common/arena.h"
#include "common/byteio.h"
#include "common/checksum.h"
#include "lossless/codec.h"
#include "outlier/coder.h"
#include "speck/decoder.h"
#include "speck/encoder.h"
#include "sperr/chunker.h"
#include "sperr/header.h"
#include "wavelet/dwt.h"

namespace perfbench {

using sperr::Arena;
using sperr::Dims;
using sperr::Status;

namespace {

struct ChunkOut {
  std::vector<uint8_t> speck;
  std::vector<uint8_t> outlier;
  sperr::speck::EncodeStats speck_stats;
  sperr::outlier::EncodeStats outlier_stats;
};

// The four per-chunk stages of the PWE encode, as in the library's chunk
// pipeline.
ChunkOut encode_chunk(Tracer& tr, const double* data, Dims dims, double tolerance,
                      double q_over_t, Arena& a, int intra_threads) {
  ChunkOut r;
  const size_t n = dims.total();
  const double q = q_over_t * tolerance;
  Arena::Scope scope(a);

  double* coeffs = nullptr;
  {
    Span s(tr, Kind::wavelet_fwd);
    coeffs = a.alloc<double>(n);
    std::copy(data, data + n, coeffs);
    sperr::wavelet::forward_dwt(coeffs, dims, sperr::wavelet::Kernel::cdf97, &a);
  }
  std::vector<double> recon;
  {
    Span s(tr, Kind::speck_encode);
    r.speck = sperr::speck::encode(coeffs, dims, q, 0, &r.speck_stats, &recon,
                                   intra_threads);
  }
  std::vector<sperr::outlier::Outlier> outliers;
  {
    Span s(tr, Kind::sperr_locate);
    {
      Span w(tr, Kind::wavelet_inv);
      sperr::wavelet::inverse_dwt(recon.data(), dims, sperr::wavelet::Kernel::cdf97, &a);
    }
    for (size_t i = 0; i < n; ++i) {
      const double err = data[i] - recon[i];
      if (std::fabs(err) > tolerance) outliers.push_back({i, err});
    }
  }
  {
    Span s(tr, Kind::outlier_encode);
    r.outlier = sperr::outlier::encode(std::move(outliers), n, tolerance, &r.outlier_stats);
  }
  return r;
}

}  // namespace

std::vector<uint8_t> traced_compress(Tracer& tr, const double* data, Dims dims,
                                     const sperr::Config& cfg, ReplayCounts& counts) {
  if (cfg.mode != sperr::Mode::pwe || !(cfg.tolerance > 0.0) || !cfg.lossless_pass)
    throw std::invalid_argument("perfbench: the replay covers PWE mode with lossless");
  Span op(tr, Kind::compress);

  std::vector<sperr::Chunk> chunks;
  {
    Span s(tr, Kind::sperr_assemble);
    if (dims.total() == 0) throw std::invalid_argument("perfbench: empty input");
    for (size_t i = 0; i < dims.total(); ++i)
      if (!std::isfinite(data[i])) throw std::invalid_argument("perfbench: non-finite input");
    chunks = sperr::make_chunks(dims, cfg.chunk_dims);
  }
  std::vector<ChunkOut> streams(chunks.size());
  std::vector<double> means(chunks.size(), 0.0);
  const int intra_threads =
      cfg.intra_chunk_threads == 0 && chunks.size() > 1 ? 1 : cfg.intra_chunk_threads;
  const int nt = cfg.num_threads > 0 ? cfg.num_threads : omp_get_max_threads();
  const int32_t op_id = op.id();

#pragma omp parallel for schedule(dynamic) num_threads(nt)
  for (size_t i = 0; i < chunks.size(); ++i) {
    Span cs(tr, Kind::sperr_chunk, op_id);
    const sperr::Chunk& c = chunks[i];
    Arena& arena = sperr::tls_arena();
    arena.reset();
    double* buf = arena.alloc<double>(c.dims.total());
    {
      Span s(tr, Kind::sperr_assemble);
      sperr::gather_chunk(data, dims, c, buf);
      double sum = 0.0;
      for (size_t k = 0; k < c.dims.total(); ++k) sum += buf[k];
      means[i] = sum / double(c.dims.total());
    }
    streams[i] = encode_chunk(tr, buf, c.dims, cfg.tolerance, cfg.q_over_t, arena,
                              intra_threads);
  }

  std::vector<uint8_t> inner;
  {
    Span s(tr, Kind::sperr_assemble);
    sperr::ContainerHeader hdr;
    hdr.mode = cfg.mode;
    hdr.precision = 8;
    hdr.dims = dims;
    hdr.chunk_dims = cfg.chunk_dims;
    hdr.quality = cfg.tolerance;
    std::vector<uint8_t> cat;
    for (size_t i = 0; i < streams.size(); ++i) {
      const ChunkOut& st = streams[i];
      sperr::ChunkEntry e(st.speck.size(), st.outlier.size());
      if (st.outlier.empty()) {
        e.checksum = sperr::xxhash64(st.speck.data(), st.speck.size());
      } else {
        cat.assign(st.speck.begin(), st.speck.end());
        cat.insert(cat.end(), st.outlier.begin(), st.outlier.end());
        e.checksum = sperr::xxhash64(cat.data(), cat.size());
      }
      e.mean = means[i];
      hdr.entries.push_back(e);
    }
    hdr.serialize(inner);
    for (const ChunkOut& st : streams) {
      inner.insert(inner.end(), st.speck.begin(), st.speck.end());
      inner.insert(inner.end(), st.outlier.begin(), st.outlier.end());
    }
  }

  std::vector<uint8_t> payload;
  {
    Span s(tr, Kind::lossless_compress);
    payload = sperr::lossless::compress(inner, {cfg.lossless_block_size, cfg.num_threads});
  }
  std::vector<uint8_t> out;
  {
    // The outer wrapper of sperr::wrap_container (sperr/header.h).
    Span s(tr, Kind::sperr_assemble);
    out.reserve(payload.size() + 14);
    sperr::put_u32(out, sperr::ContainerHeader::kOuterMagic);
    sperr::put_u8(out, sperr::ContainerHeader::kVersion);
    sperr::put_u8(out, 1);
    sperr::put_u64(out, payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
  }

  counts = ReplayCounts{};
  counts.chunks = chunks.size();
  counts.threads = std::min<int>(nt, int(chunks.size()));
  counts.inner_bytes = inner.size();
  counts.container_bytes = out.size();
  for (const ChunkOut& st : streams) {
    counts.speck_payload_bits += st.speck_stats.payload_bits;
    for (const auto& p : st.speck_stats.passes) {
      counts.speck_sorting_s += p.sorting_s;
      counts.speck_refinement_s += p.refinement_s;
    }
    counts.outliers += st.outlier_stats.num_outliers;
    counts.outlier_bits += st.outlier_stats.payload_bits;
  }
  return out;
}

Status traced_decompress(Tracer& tr, const uint8_t* stream, size_t nbytes,
                         std::vector<double>& out, Dims& dims, ReplayCounts& counts) {
  Span op(tr, Kind::decompress);
  std::vector<uint8_t> inner;
  uint8_t version = sperr::ContainerHeader::kVersion;
  {
    Span s(tr, Kind::lossless_decompress);
    if (const Status st = sperr::unwrap_container(stream, nbytes, inner, nullptr, &version);
        st != Status::ok)
      return st;
  }

  sperr::ContainerHeader hdr;
  std::vector<sperr::Chunk> chunks;
  std::vector<size_t> offsets;
  {
    Span s(tr, Kind::sperr_assemble);
    sperr::ByteReader br(inner.data(), inner.size());
    if (const Status st = hdr.deserialize(br, version); st != Status::ok) return st;
    const sperr::ResourceLimits& rl = sperr::effective_limits(nullptr);
    if (!rl.admits_chunks(hdr.entries.size()) ||
        !rl.admits_chunks(sperr::chunk_count_bound(hdr.dims, hdr.chunk_dims)))
      return Status::resource_exhausted;
    chunks = sperr::make_chunks(hdr.dims, hdr.chunk_dims);
    if (chunks.size() != hdr.entries.size()) return Status::corrupt_stream;
    size_t pos = br.pos();
    for (const sperr::ChunkEntry& e : hdr.entries) {
      if (e.total_len() > inner.size() - pos) return Status::truncated_stream;
      offsets.push_back(pos);
      pos += size_t(e.total_len());
    }
    const uint64_t field_bytes = uint64_t(hdr.dims.total()) * sizeof(double);
    if (!rl.admits_output(field_bytes) || !rl.admits_working(field_bytes))
      return Status::resource_exhausted;
    dims = hdr.dims;
    out.assign(dims.total(), 0.0);
  }

  // Single-chunk containers let the SPECK decoder use one lane per core, as
  // the library does.
  const int intra_threads = chunks.size() == 1 ? 0 : 1;
  std::vector<Status> status(chunks.size(), Status::ok);
  const int32_t op_id = op.id();

#pragma omp parallel for schedule(dynamic)
  for (size_t i = 0; i < chunks.size(); ++i) {
    Span cs(tr, Kind::sperr_chunk, op_id);
    const sperr::Chunk& c = chunks[i];
    const sperr::ChunkEntry& e = hdr.entries[i];
    const size_t n = c.dims.total();
    const uint8_t* sp = inner.data() + offsets[i];
    const uint8_t* opp = sp + e.speck_len;
    Arena& arena = sperr::tls_arena();
    arena.reset();
    double* buf = arena.alloc<double>(n);
    {
      Span s(tr, Kind::sperr_assemble);
      std::fill(buf, buf + n, 0.0);
      if (hdr.has_integrity() && sperr::xxhash64(sp, size_t(e.total_len())) != e.checksum)
        status[i] = Status::corrupt_chunk;
    }
    if (status[i] == Status::ok) {
      Arena::Scope scope(arena);
      {
        Span s(tr, Kind::speck_decode);
        status[i] = sperr::speck::decode(sp, size_t(e.speck_len), c.dims, buf, nullptr,
                                         intra_threads);
      }
      if (status[i] == Status::ok) {
        Span s(tr, Kind::wavelet_inv);
        sperr::wavelet::inverse_dwt(buf, c.dims, sperr::wavelet::Kernel::cdf97, &arena);
      }
      if (status[i] == Status::ok && e.outlier_len != 0) {
        Span s(tr, Kind::outlier_decode);
        std::vector<sperr::outlier::Outlier> outliers;
        status[i] = sperr::outlier::decode(opp, size_t(e.outlier_len), n, outliers);
        for (const auto& o : outliers) buf[o.pos] += o.corr;
      }
    }
    if (status[i] != Status::ok) std::fill(buf, buf + n, 0.0);
    {
      Span s(tr, Kind::sperr_assemble);
      sperr::scatter_chunk(buf, c, out.data(), dims);
    }
  }

  counts = ReplayCounts{};
  counts.chunks = chunks.size();
  counts.threads = std::min<int>(omp_get_max_threads(), int(chunks.size()));
  counts.inner_bytes = inner.size();
  counts.container_bytes = nbytes;
  for (const Status st : status)
    if (st != Status::ok) return st;
  return Status::ok;
}

}  // namespace perfbench
