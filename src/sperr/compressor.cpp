#include <algorithm>
#include <cmath>
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
      const size_t bs = std::clamp(cfg.lossless_block_size, size_t(1) << 12, size_t(1) << 30);
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
        stats->speck_significance_s += p.significance_s;
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

}  // namespace pipeline

namespace {

void require_valid(Dims dims, const Config& cfg) {
  if (const char* why = pipeline::config_error(dims, cfg))
    throw std::invalid_argument(std::string("sperr: ") + why);
}

std::vector<uint8_t> compress_impl(const double* data, Dims dims, const Config& cfg,
                                   uint8_t precision, Stats* stats) {
  const auto chunks = make_chunks(dims, cfg.chunk_dims);
  std::vector<pipeline::ChunkStream> streams(chunks.size());

  // Intra-chunk SPECK lanes (byte-identical output at any setting). An
  // explicit count is honored as-is; auto (0) only expands on single-chunk
  // inputs, where the OpenMP chunk loop cannot use the machine — combining
  // auto with a parallel chunk loop would oversubscribe every core.
  const int intra_threads =
      cfg.intra_chunk_threads == 0 && chunks.size() > 1 ? 1
                                                        : cfg.intra_chunk_threads;

  bool nonfinite = false;
#ifdef SPERR_HAVE_OPENMP
  const int nt = cfg.num_threads > 0 ? cfg.num_threads : omp_get_max_threads();
#pragma omp parallel for schedule(dynamic) num_threads(nt) reduction(|| : nonfinite)
#endif
  for (size_t i = 0; i < chunks.size(); ++i) {
    const Chunk& c = chunks[i];
    // All large per-chunk scratch (gather buffer, coefficient copy, wavelet
    // tiles) comes from this worker's arena: after the first chunk of a
    // given size the loop performs no heap allocation for these buffers.
    Arena& arena = tls_arena();
    arena.reset();
    double* buf = arena.alloc<double>(c.dims.total());
    gather_chunk(data, dims, c, buf);
    if (pipeline::encode_chunk(buf, c.dims, cfg, streams[i], &arena, intra_threads) !=
        Status::ok)
      nonfinite = true;
  }
  // The reference SPERR has the same requirement; name the first offender.
  if (nonfinite) {
    const double* bad = std::find_if_not(data, data + dims.total(),
                                         [](double v) { return std::isfinite(v); });
    throw std::invalid_argument("sperr: input contains NaN or Inf at index " +
                                std::to_string(bad - data));
  }
  return pipeline::write_container(streams, dims, precision, cfg, stats);
}

}  // namespace

std::vector<uint8_t> compress(const double* data, Dims dims, const Config& cfg,
                              Stats* stats) {
  require_valid(dims, cfg);
  return compress_impl(data, dims, cfg, 8, stats);
}

std::vector<uint8_t> compress(const float* data, Dims dims, const Config& cfg,
                              Stats* stats) {
  require_valid(dims, cfg);
  std::vector<double> wide(data, data + dims.total());
  return compress_impl(wide.data(), dims, cfg, 4, stats);
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
