#include "sperr/pipeline.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"
#include "outlier/coder.h"
#include "speck/decoder.h"
#include "speck/encoder.h"
#include "sperr/chunker.h"
#include "wavelet/dwt.h"

namespace sperr::pipeline {

const char* config_error(Dims dims, const Config& cfg) {
  if (dims.total() == 0) return "empty input";
  if (cfg.mode == Mode::pwe && !(cfg.tolerance > 0.0))
    return "PWE mode requires tolerance > 0";
  if (cfg.mode == Mode::fixed_rate && !(cfg.bpp > 0.0))
    return "fixed-rate mode requires bpp > 0";
  if (cfg.mode == Mode::target_rmse && !(cfg.rmse > 0.0))
    return "target-rmse mode requires rmse > 0";
  if (cfg.mode == Mode::pwe && !(cfg.q_over_t > 0.0)) return "q_over_t must be > 0";
  if (largest_chunk(dims, cfg.chunk_dims).total() >= speck::kMaxCoefficients)
    return "chunk of 2^31 voxels or more (reduce chunk_dims)";
  return nullptr;
}

ChunkStream encode_pwe(const double* data, Dims dims, double tolerance,
                       double q_over_t,
                       std::vector<outlier::Outlier>* capture_outliers,
                       Arena* arena, int intra_chunk_threads) {
  ChunkStream result;
  const size_t n = dims.total();
  const double q = q_over_t * tolerance;
  Arena& a = arena ? *arena : tls_arena();
  Arena::Scope scope(a);
  result.timing.bytes = uint64_t(n) * sizeof(double);

  // Stage 1: forward wavelet transform.
  Timer timer;
  double* coeffs = a.alloc<double>(n);
  std::copy(data, data + n, coeffs);
  wavelet::forward_dwt(coeffs, dims, wavelet::Kernel::cdf97, &a);
  result.timing.transform_s = timer.seconds();

  // Stage 2: SPECK-code all bitplanes down to the quantization step q. The
  // encoder also hands back the decoder-equivalent coefficient
  // reconstruction so stage 3 need not decode the stream it just built.
  timer.reset();
  std::vector<double> recon;
  result.speck = speck::encode(coeffs, dims, q, 0, &result.speck_stats, &recon,
                               intra_chunk_threads);
  result.timing.speck_s = timer.seconds();

  // Stage 3: locate outliers — inverse transform plus a comparison with the
  // original input (paper §V-C stage 3).
  timer.reset();
  wavelet::inverse_dwt(recon.data(), dims, wavelet::Kernel::cdf97, &a);
  std::vector<outlier::Outlier> outliers;
  for (size_t i = 0; i < n; ++i) {
    const double err = data[i] - recon[i];
    if (std::fabs(err) > tolerance) outliers.push_back({i, err});
  }
  result.timing.locate_s = timer.seconds();
  if (capture_outliers) *capture_outliers = outliers;

  // Stage 4: code the outliers so they can be corrected to within t.
  timer.reset();
  outlier::EncodeStats ostats;
  result.outlier = outlier::encode(std::move(outliers), n, tolerance, &ostats);
  result.num_outliers = ostats.num_outliers;
  result.outlier_payload_bits = ostats.payload_bits;
  result.timing.outlier_s = timer.seconds();

  return result;
}

size_t fixed_rate_budget(double bpp, Dims chunk_dims) {
  const auto budget = size_t(std::llround(bpp * double(chunk_dims.total())));
  return std::max<size_t>(budget, 8);
}

ChunkStream encode_fixed_rate(const double* data, Dims dims, size_t budget_bits,
                              Arena* arena) {
  ChunkStream result;
  const size_t n = dims.total();
  Arena& a = arena ? *arena : tls_arena();
  Arena::Scope scope(a);
  result.timing.bytes = uint64_t(n) * sizeof(double);

  Timer timer;
  double* coeffs = a.alloc<double>(n);
  std::copy(data, data + n, coeffs);
  wavelet::forward_dwt(coeffs, dims, wavelet::Kernel::cdf97, &a);
  result.timing.transform_s = timer.seconds();

  // Pick q far below the coefficient scale so the bit budget, not the
  // quantization floor, terminates coding (~50 bitplanes available).
  double max_mag = 0.0;
  for (size_t i = 0; i < n; ++i) max_mag = std::max(max_mag, std::fabs(coeffs[i]));
  const double q = max_mag > 0.0 ? std::ldexp(max_mag, -50) : 1.0;

  timer.reset();
  result.speck = speck::encode(coeffs, dims, q, budget_bits, &result.speck_stats);
  result.timing.speck_s = timer.seconds();
  return result;
}

ChunkStream encode_target_rmse(const double* data, Dims dims, double rmse_target,
                               Arena* arena, int intra_chunk_threads) {
  ChunkStream result;
  const size_t n = dims.total();
  Arena& a = arena ? *arena : tls_arena();
  Arena::Scope scope(a);
  result.timing.bytes = uint64_t(n) * sizeof(double);

  Timer timer;
  double* coeffs = a.alloc<double>(n);
  std::copy(data, data + n, coeffs);
  wavelet::forward_dwt(coeffs, dims, wavelet::Kernel::cdf97, &a);
  result.timing.transform_s = timer.seconds();

  // Unit-norm near-orthogonal basis: coefficient-domain RMSE ~ output RMSE
  // (paper §III-A / §VII). Mid-riser quantization with step q injects
  // q/sqrt(12) RMSE per coded coefficient; dead-zone zeros add a little
  // more, so take a 2x safety margin.
  const double q = rmse_target * std::sqrt(12.0) * 0.5;

  timer.reset();
  result.speck = speck::encode(coeffs, dims, q, 0, &result.speck_stats, nullptr,
                               intra_chunk_threads);
  result.timing.speck_s = timer.seconds();
  return result;
}

Status encode_chunk(const double* data, Dims dims, const Config& cfg,
                    ChunkStream& out, Arena* arena, int intra_chunk_threads) {
  // A finite sum proves every sample finite, so the scan for a NaN or Inf
  // runs only when the sum is not (it may also just have overflowed).
  const size_t n = dims.total();
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) sum += data[k];
  if (!std::isfinite(sum) &&
      !std::all_of(data, data + n, [](double v) { return std::isfinite(v); }))
    return Status::invalid_argument;

  if (cfg.mode == Mode::pwe) {
    out = encode_pwe(data, dims, cfg.tolerance, cfg.q_over_t, nullptr, arena,
                     intra_chunk_threads);
  } else if (cfg.mode == Mode::target_rmse) {
    out = encode_target_rmse(data, dims, cfg.rmse, arena, intra_chunk_threads);
  } else {
    out = encode_fixed_rate(data, dims, fixed_rate_budget(cfg.bpp, dims), arena);
  }
  out.mean = sum / double(n);
  return Status::ok;
}

Status decode_lowres(const uint8_t* speck_stream, size_t speck_len, Dims dims,
                     size_t drop_levels, std::vector<double>& out,
                     Dims& coarse_dims) {
  const size_t max_levels = wavelet::plan_levels(dims).max();
  const size_t keep = std::min(drop_levels, max_levels);

  std::vector<double> full(dims.total());
  const Status s = speck::decode(speck_stream, speck_len, dims, full.data());
  if (s != Status::ok) return s;
  wavelet::inverse_dwt_partial(full.data(), dims, keep);

  // Extract the low-pass box and divide out the per-pass DC gain so the
  // coarse field sits on the data's own scale.
  coarse_dims = wavelet::lowpass_box_at(dims, keep);
  const wavelet::LevelPlan plan = wavelet::plan_levels(dims);
  const size_t passes = std::min(keep, plan.lx) + std::min(keep, plan.ly) +
                        std::min(keep, plan.lz);
  const double scale = 1.0 / std::pow(wavelet::lowpass_dc_gain(), double(passes));

  out.resize(coarse_dims.total());
  for (size_t z = 0; z < coarse_dims.z; ++z)
    for (size_t y = 0; y < coarse_dims.y; ++y)
      for (size_t x = 0; x < coarse_dims.x; ++x)
        out[coarse_dims.index(x, y, z)] = full[dims.index(x, y, z)] * scale;
  return Status::ok;
}

Status decode_lowres(const std::vector<uint8_t>& speck_stream, Dims dims,
                     size_t drop_levels, std::vector<double>& out,
                     Dims& coarse_dims) {
  return decode_lowres(speck_stream.data(), speck_stream.size(), dims, drop_levels,
                       out, coarse_dims);
}

Status decode(const uint8_t* speck_stream, size_t speck_len,
              const uint8_t* outlier_stream, size_t outlier_len, Dims dims,
              double* out, Arena* arena, int intra_chunk_threads) {
  Arena& a = arena ? *arena : tls_arena();
  Arena::Scope scope(a);
  const Status s =
      speck::decode(speck_stream, speck_len, dims, out, nullptr, intra_chunk_threads);
  if (s != Status::ok) return s;
  wavelet::inverse_dwt(out, dims, wavelet::Kernel::cdf97, &a);

  if (outlier_len != 0) {
    std::vector<outlier::Outlier> outliers;
    const Status so = outlier::decode(outlier_stream, outlier_len, dims.total(), outliers);
    if (so != Status::ok) return so;
    for (const auto& o : outliers) out[o.pos] += o.corr;
  }
  return Status::ok;
}

Status decode(const std::vector<uint8_t>& speck_stream,
              const std::vector<uint8_t>& outlier_stream, Dims dims, double* out) {
  return decode(speck_stream.data(), speck_stream.size(), outlier_stream.data(),
                outlier_stream.size(), dims, out);
}

}  // namespace sperr::pipeline
