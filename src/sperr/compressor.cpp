#include <algorithm>
#include <cmath>
#include <new>
#include <stdexcept>
#include <string>

#include "common/arena.h"
#include "common/checksum.h"
#include "common/stats.h"
#include "common/timer.h"
#include "sperr/chunker.h"
#include "sperr/header.h"
#include "sperr/pipeline.h"
#include "sperr/sperr.h"

#ifdef SPERR_HAVE_OPENMP
#include <omp.h>
#endif

namespace sperr {

namespace pipeline {

std::vector<uint8_t> write_container(const std::vector<ChunkStream>& streams,
                                     Dims dims, uint8_t precision,
                                     const Config& cfg, Stats* stats) {
  ContainerHeader hdr;
  hdr.mode = cfg.mode;
  hdr.precision = precision;
  hdr.dims = dims;
  hdr.chunk_dims = cfg.chunk_dims;
  hdr.quality = cfg.mode == Mode::pwe ? cfg.tolerance
                : cfg.mode == Mode::target_rmse ? cfg.rmse
                                                : cfg.bpp;
  size_t payload_bytes = 0;
  for (const ChunkStream& s : streams) {
    hdr.entries.emplace_back(s.speck.size(), s.outlier.size());
    hdr.entries.back().mean = s.mean;
    payload_bytes += s.speck.size() + s.outlier.size();
  }

  // The header's size does not depend on the checksums it carries: lay it
  // out with them zero, append the streams, hash each chunk's speck‖outlier
  // bytes where they now lie contiguous, and rewrite the header in place.
  std::vector<uint8_t> inner;
  hdr.serialize(inner);
  const size_t header_bytes = inner.size();
  inner.reserve(header_bytes + payload_bytes);
  for (const ChunkStream& s : streams) {
    inner.insert(inner.end(), s.speck.begin(), s.speck.end());
    inner.insert(inner.end(), s.outlier.begin(), s.outlier.end());
  }
  size_t pos = header_bytes;
  for (ChunkEntry& e : hdr.entries) {
    e.checksum = xxhash64(inner.data() + pos, size_t(e.total_len()));
    pos += size_t(e.total_len());
  }
  std::vector<uint8_t> header;
  hdr.serialize(header);
  std::copy(header.begin(), header.end(), inner.begin());

  const size_t inner_bytes = inner.size();
  Timer timer;
  auto out = wrap_container(std::move(inner), cfg.lossless_pass,
                            {cfg.lossless_block_size, cfg.num_threads});
  const double lossless_s = timer.seconds();

  if (stats) {
    *stats = Stats{};
    stats->compressed_bytes = out.size();
    stats->num_chunks = streams.size();
    if (cfg.lossless_pass) {
      const size_t bs = lossless::clamp_block_size(cfg.lossless_block_size);
      stats->lossless_blocks = inner_bytes == 0 ? 0 : (inner_bytes - 1) / bs + 1;
      stats->timing.lossless_s = lossless_s;
    }
    // Serial reduction in chunk-index order — per-pass (and per-stage)
    // timers are doubles, and summing them in OpenMP completion order would
    // make these fields differ run-to-run on identical inputs (float
    // addition is not associative). Keeping the fold here, ordered, makes
    // Stats (and the --speck_json records built from it) reproducible.
    for (const ChunkStream& s : streams) {
      stats->speck_bytes += s.speck.size();
      stats->outlier_bytes += s.outlier.size();
      stats->num_outliers += s.num_outliers;
      stats->speck_payload_bits += s.speck_stats.payload_bits;
      stats->speck_planes_coded += s.speck_stats.planes_coded;
      stats->speck_significant += s.speck_stats.significant_count;
      for (const auto& p : s.speck_stats.passes) {
        stats->speck_sorting_s += p.sorting_s;
        stats->speck_refinement_s += p.refinement_s;
      }
      stats->speck_setup_s += s.speck_stats.setup_s;
      stats->speck_finish_s += s.speck_stats.finish_s;
      stats->timing += s.timing;
    }
    stats->bpp = double(out.size()) * 8.0 / double(dims.total());
  }
  return out;
}

Status compress_chunks(Dims dims, const Config& cfg, uint8_t precision,
                       const ChunkSource& source, std::vector<uint8_t>& out,
                       Stats* stats) {
  const auto chunks = make_chunks(dims, cfg.chunk_dims);
  std::vector<ChunkStream> streams(chunks.size());
  std::vector<Status> status(chunks.size(), Status::ok);

#ifdef SPERR_HAVE_OPENMP
  const int budget = cfg.num_threads > 0 ? cfg.num_threads : omp_get_max_threads();
#else
  const int budget = 1;
#endif
  // Intra-chunk SPECK lanes (byte-identical output at any setting). An
  // explicit count is honored as-is; auto (0) gives a lone chunk the whole
  // thread budget, which the chunk loop cannot use, and every chunk of a
  // multi-chunk input one lane, as the chunk loop already fills the budget.
  const int intra_threads = cfg.intra_chunk_threads != 0 ? cfg.intra_chunk_threads
                            : chunks.size() == 1         ? budget
                                                         : 1;

#ifdef SPERR_HAVE_OPENMP
  // At most one thread per chunk, as decode_chunks: a spare thread would
  // only let a lone chunk land on a different, cold arena from call to call.
  const int nt = std::min<int>(budget, int(chunks.size()));
#pragma omp parallel for schedule(dynamic) num_threads(nt)
#endif
  for (size_t i = 0; i < chunks.size(); ++i) {
    // The large per-chunk scratch (the source's copy, coefficients, wavelet
    // tiles) comes from this worker's arena: after the first chunk of a
    // given size the loop performs no heap allocation for these buffers.
    Arena& arena = tls_arena();
    try {
      arena.reset();  // may coalesce its blocks into a new one
      const ChunkView v = source(chunks[i], arena);
      status[i] = v.volume ? encode_chunk(v.volume, v.vol_dims, v.chunk, cfg, streams[i],
                                          &arena, intra_threads, precision == 4)
                           : Status::truncated_stream;
    } catch (const std::bad_alloc&) {
      status[i] = Status::resource_exhausted;
    }
  }
  for (const Status s : status)
    if (s != Status::ok) return s;
  out = write_container(streams, dims, precision, cfg, stats);
  return Status::ok;
}

}  // namespace pipeline

namespace {

/// Both compress overloads: validate, run the chunk loop over `source`, and
/// turn its failures into exceptions.
template <typename T>
std::vector<uint8_t> compress_field(const T* data, Dims dims, const Config& cfg,
                                    Stats* stats, const pipeline::ChunkSource& source) {
  if (const char* why = pipeline::config_error(dims, cfg))
    throw std::invalid_argument(std::string("sperr: ") + why);
  std::vector<uint8_t> out;
  const Status s =
      pipeline::compress_chunks(dims, cfg, uint8_t(sizeof(T)), source, out, stats);
  if (s == Status::resource_exhausted) throw std::bad_alloc();
  if (s != Status::ok) {
    // The reference SPERR has the same requirement; name the first offender.
    const T* bad = std::find_if_not(data, data + dims.total(),
                                    [](T v) { return std::isfinite(v); });
    throw std::invalid_argument("sperr: input contains NaN or Inf at index " +
                                std::to_string(bad - data));
  }
  return out;
}

}  // namespace

std::vector<uint8_t> compress(const double* data, Dims dims, const Config& cfg,
                              Stats* stats) {
  return compress_field(data, dims, cfg, stats, [&](const Chunk& c, Arena&) {
    return pipeline::ChunkView{data, dims, c};
  });
}

std::vector<uint8_t> compress(const float* data, Dims dims, const Config& cfg,
                              Stats* stats) {
  // Each worker widens only the chunk it codes: no whole-field copy.
  return compress_field(data, dims, cfg, stats, [&](const Chunk& c, Arena& arena) {
    double* buf = arena.alloc<double>(c.dims.total());
    gather_chunk(data, dims, c, buf);
    return pipeline::ChunkView{buf, c.dims, Chunk{{0, 0, 0}, c.dims}};
  });
}

double tolerance_from_idx(const double* data, size_t n, int idx) {
  const FieldStats s = compute_stats(data, n);
  return std::ldexp(s.range(), -idx);
}

double tolerance_from_idx(const float* data, size_t n, int idx) {
  const FieldStats s = compute_stats(data, n);
  return std::ldexp(s.range(), -idx);
}

}  // namespace sperr
