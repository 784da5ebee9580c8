#include "sperr/pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>

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
  if (cfg.mode == Mode::pwe && !(cfg.q_over_t * cfg.tolerance > 0.0))
    return "q_over_t * tolerance underflows to 0";
  if (cfg.chunk_dims.x == 0 || cfg.chunk_dims.y == 0 || cfg.chunk_dims.z == 0)
    return "chunk_dims has a zero extent";
  if (largest_chunk(dims, cfg.chunk_dims).total() >= speck::kMaxCoefficients)
    return "chunk of 2^31 voxels or more (reduce chunk_dims)";
  return nullptr;
}

size_t fixed_rate_budget(double bpp, Dims chunk_dims) {
  const auto budget = size_t(std::llround(bpp * double(chunk_dims.total())));
  return std::max<size_t>(budget, 8);
}

Status encode_chunk(const double* volume, Dims vol_dims, const Chunk& chunk,
                    const Config& cfg, ChunkStream& out, Arena* arena,
                    int intra_chunk_threads, bool float_output,
                    std::vector<outlier::Outlier>* capture_outliers) {
  const Dims dims = chunk.dims;
  const size_t n = dims.total();
  Arena& a = arena ? *arena : tls_arena();
  Arena::Scope scope(a);

  // Stage 1: gather the chunk into the coefficient buffer, which the
  // forward wavelet transform then overwrites in place.
  Timer timer;
  double* coeffs = a.alloc<double>(n);
  // The wavelet tiles, the SPECK coder state and then the recon follow the
  // coefficients; on a cold arena they share one block only if it is
  // reserved now, and only then does the recon reuse the coder's pages.
  a.reserve(speck::encode_arena_bytes(dims));
  gather_chunk(volume, vol_dims, chunk, coeffs);
  double transform_s = timer.seconds();

  // A finite sum proves every sample finite, so the scan for a NaN or Inf
  // runs only when the sum is not (it may also just have overflowed).
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) sum += coeffs[k];
  if (!std::isfinite(sum) &&
      !std::all_of(coeffs, coeffs + n, [](double v) { return std::isfinite(v); }))
    return Status::invalid_argument;

  out = ChunkStream{};
  out.mean = sum / double(n);
  out.timing.bytes = uint64_t(n) * sizeof(double);
  timer.reset();
  wavelet::forward_dwt(coeffs, dims, wavelet::Kernel::cdf97, &a);
  out.timing.transform_s = transform_s + timer.seconds();

  // The mode sets the quantization step q and the bit budget (0 = none).
  const bool pwe = cfg.mode == Mode::pwe;
  double q = 0.0;
  size_t budget = 0;
  if (pwe) {
    q = cfg.q_over_t * cfg.tolerance;
  } else if (cfg.mode == Mode::target_rmse) {
    // Unit-norm near-orthogonal basis: coefficient-domain RMSE ~ output RMSE
    // (paper §III-A / §VII). Mid-riser quantization with step q injects
    // q/sqrt(12) RMSE per coded coefficient; dead-zone zeros add a little
    // more, so take a 2x safety margin.
    q = cfg.rmse * std::sqrt(12.0) * 0.5;
  } else {
    // Pick q far below the coefficient scale so the bit budget, not the
    // quantization floor, terminates coding (~50 bitplanes available). The
    // clamp keeps q > 0, as the SPECK header requires, when the largest
    // coefficient is subnormal.
    double max_mag = 0.0;
    for (size_t i = 0; i < n; ++i) max_mag = std::max(max_mag, std::fabs(coeffs[i]));
    q = max_mag > 0.0 ? std::max(std::ldexp(max_mag, -50),
                                 std::numeric_limits<double>::denorm_min())
                      : 1.0;
    budget = fixed_rate_budget(cfg.bpp, dims);
  }

  // Stage 2: SPECK-code all bitplanes down to q, or up to the budget. In
  // PWE mode the decoder-equivalent coefficient reconstruction comes from
  // the coefficients (speck::reconstruct), so stage 3 need not decode the
  // stream it just built. The coder state lives in a scope of `a` that has
  // closed by the time the recon is taken, so the recon reuses its pages.
  timer.reset();
  out.speck = speck::encode(coeffs, dims, q, budget, &out.speck_stats, nullptr,
                            intra_chunk_threads, &a);
  double* recon = nullptr;
  if (pwe) {
    const Timer export_timer;
    recon = a.alloc<double>(n);
    speck::reconstruct(coeffs, dims, q, recon, intra_chunk_threads);
    out.speck_stats.finish_s += export_timer.seconds();
  }
  out.timing.speck_s = timer.seconds();
  if (!pwe) return Status::ok;

  // Stage 3: locate outliers — inverse transform plus a comparison with the
  // original input (paper §V-C stage 3), read row by row from the caller's
  // volume; positions are chunk-linear. An f32 container may be decoded to
  // doubles or to floats, so there the reconstruction rounded to float must
  // be within t too.
  const double tolerance = cfg.tolerance;
  timer.reset();
  wavelet::inverse_dwt(recon, dims, wavelet::Kernel::cdf97, &a);
  std::vector<outlier::Outlier> outliers;
  for (size_t z = 0; z < dims.z; ++z)
    for (size_t y = 0; y < dims.y; ++y) {
      const double* in = volume + vol_dims.index(chunk.origin.x, chunk.origin.y + y,
                                                 chunk.origin.z + z);
      const size_t row = dims.index(0, y, z);
      const double* rec = recon + row;
      for (size_t x = 0; x < dims.x; ++x) {
        const double err = in[x] - rec[x];
        if (std::fabs(err) > tolerance ||
            (float_output && std::fabs(in[x] - double(float(rec[x]))) > tolerance))
          outliers.push_back({row + x, err});
      }
    }
  out.timing.locate_s = timer.seconds();
  if (capture_outliers) *capture_outliers = outliers;

  // Stage 4: code the outliers so they can be corrected to within t: the
  // decoded value y lands within step/2 of x. The coder drops corrections
  // of magnitude <= step, which an f32 outlier can have: one found only by
  // the float test has |x - recon| in (t/2, t], because a recon within t/2
  // of a float x rounds to a float within t of x. Every correction thus
  // exceeds t/2, so that step codes them all, and it leaves y within t/4.
  timer.reset();
  double step = tolerance;
  if (float_output) {
    double smallest = std::numeric_limits<double>::infinity();
    for (const auto& o : outliers) smallest = std::min(smallest, std::fabs(o.corr));
    if (smallest <= tolerance) step = tolerance / 2;
  }
  outlier::EncodeStats ostats;
  out.outlier = outlier::encode(std::move(outliers), n, step, &ostats);
  out.num_outliers = ostats.num_outliers;
  out.outlier_payload_bits = ostats.payload_bits;
  out.timing.outlier_s = timer.seconds();
  return Status::ok;
}

Status decode(const uint8_t* speck_stream, size_t speck_len,
              const uint8_t* outlier_stream, size_t outlier_len, Dims dims,
              double* out, Arena* arena, int intra_chunk_threads, size_t drop_levels) {
  Arena& a = arena ? *arena : tls_arena();
  Arena::Scope scope(a);
  const Status s = speck::decode(speck_stream, speck_len, dims, out, nullptr,
                                 intra_chunk_threads, &a);
  if (s != Status::ok) return s;

  if (drop_levels > 0) {
    const wavelet::LevelPlan plan = wavelet::plan_levels(dims);
    const size_t keep = std::min(drop_levels, plan.max());
    wavelet::inverse_dwt_partial(out, dims, keep, &a);
    // Pack the low-pass box into the front of `out`, dividing out the
    // per-pass DC gain. A box sample never lands past where it is read, so
    // the forward walk reads every sample before anything overwrites it.
    const Dims box = wavelet::lowpass_box_at(dims, keep);
    const size_t passes = std::min(keep, plan.lx) + std::min(keep, plan.ly) +
                          std::min(keep, plan.lz);
    const double scale = 1.0 / std::pow(wavelet::lowpass_dc_gain(), double(passes));
    for (size_t z = 0; z < box.z; ++z)
      for (size_t y = 0; y < box.y; ++y)
        for (size_t x = 0; x < box.x; ++x)
          out[box.index(x, y, z)] = out[dims.index(x, y, z)] * scale;
    return Status::ok;
  }

  wavelet::inverse_dwt(out, dims, wavelet::Kernel::cdf97, &a);
  if (outlier_len != 0) {
    std::vector<outlier::Outlier> outliers;
    const Status so = outlier::decode(outlier_stream, outlier_len, dims.total(), outliers);
    if (so != Status::ok) return so;
    for (const auto& o : outliers) out[o.pos] += o.corr;
  }
  return Status::ok;
}

}  // namespace sperr::pipeline
