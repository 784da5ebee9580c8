// Ablation studies for the design choices the paper makes (and this
// reproduction documents in DESIGN.md):
//
//  A. Wavelet kernel (§III-A): CDF 9/7 vs CDF 5/3 vs Haar on the SPERR
//     coefficient path — why the paper's kernel choice matters.
//  B. Set partitioning (§III-B): SPECK vs a dense per-coefficient bitplane
//     coder with identical quantization — what "zooming in" buys.
//  C. Outlier linearization (§IV-C): row-major flattening vs Morton order
//     vs a random permutation — the paper argues outliers carry no spatial
//     correlation, so fancier space-filling orders should win nothing.
//  D. Final lossless pass (§V): container sizes with and without it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "common/bitstream.h"
#include "common/byteio.h"
#include "common/rng.h"
#include "lossless/codec.h"
#include "metrics/metrics.h"
#include "outlier/coder.h"
#include "speck/decoder.h"
#include "speck/encoder.h"
#include "sperr/pipeline.h"
#include "sperr/sperr.h"
#include "support.h"
#include "wavelet/dwt.h"

namespace {

using sperr::Dims;

// Interleave the bits of (x, y, z) -> Morton code (21 bits per axis).
uint64_t morton3(uint64_t x, uint64_t y, uint64_t z) {
  auto spread = [](uint64_t v) {
    v &= 0x1fffff;
    v = (v | v << 32) & 0x1f00000000ffffULL;
    v = (v | v << 16) & 0x1f0000ff0000ffULL;
    v = (v | v << 8) & 0x100f00f00f00f00fULL;
    v = (v | v << 4) & 0x10c30c30c30c30c3ULL;
    v = (v | v << 2) & 0x1249249249249249ULL;
    return v;
  };
  return spread(x) | (spread(y) << 1) | (spread(z) << 2);
}

// A dense bitplane coder with SPECK's quantization (scale by 1/q, planes
// 2^n_max..2^0, the same refinement rule) but no set partitioning: every
// not-yet-significant coefficient spends one significance bit per plane.
// Encode only; its size is what ablation B compares.
std::vector<uint8_t> dense_bitplane_encode(const double* coeffs, Dims dims, double q) {
  const size_t n = dims.total();
  std::vector<double> mag(n);
  double max_m = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mag[i] = std::fabs(coeffs[i]) / q;
    max_m = std::max(max_m, mag[i]);
  }
  int32_t n_max = -1;
  if (max_m > 1.0) {
    n_max = 0;
    while (std::ldexp(1.0, n_max + 1) < max_m) ++n_max;
  }

  sperr::WordBitWriter bw;
  std::vector<bool> significant(n);
  std::vector<double> residual = mag;
  for (int32_t p = n_max; p >= 0; --p) {
    const double thrd = std::ldexp(1.0, p);
    for (size_t i = 0; i < n; ++i) {
      if (significant[i]) {
        const bool bit = residual[i] > thrd;
        bw.put_bits(bit, 1);
        if (bit) residual[i] -= thrd;
      } else if (mag[i] > thrd) {
        bw.put_bits(1 | (uint64_t(std::signbit(coeffs[i])) << 1), 2);  // sig, sign
        significant[i] = true;
        residual[i] = mag[i] - thrd;
      } else {
        bw.put_bits(0, 1);
      }
    }
  }

  std::vector<uint8_t> out;
  sperr::put_u16(out, 0x4252);  // "RB"
  sperr::put_f64(out, q);
  sperr::put_u32(out, uint32_t(n_max));
  sperr::put_u64(out, bw.bit_count());
  const auto payload = bw.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void ablation_wavelet_kernel() {
  bench::print_title("Ablation A (§III-A): wavelet kernel on the coefficient path");
  const auto& field = bench::field_by_label("Press");
  const auto data = bench::load_field(field);
  const double npts = double(data.size());

  std::printf("%-10s %8s %12s %12s %12s\n", "kernel", "idx", "BPP", "PSNR (dB)",
              "acc. gain");
  bench::print_rule();
  for (const auto kernel : {sperr::wavelet::Kernel::cdf97,
                            sperr::wavelet::Kernel::cdf53,
                            sperr::wavelet::Kernel::haar}) {
    for (const int idx : {10, 20, 30}) {
      const double t = sperr::tolerance_from_idx(data.data(), data.size(), idx);
      std::vector<double> coeffs = data;
      sperr::wavelet::forward_dwt(coeffs.data(), field.dims, kernel);
      const auto stream = sperr::speck::encode(coeffs.data(), field.dims, 1.5 * t);
      std::vector<double> recon(data.size());
      (void)sperr::speck::decode(stream.data(), stream.size(), field.dims,
                                 recon.data());
      sperr::wavelet::inverse_dwt(recon.data(), field.dims, kernel);
      const auto q = sperr::metrics::compare(data.data(), recon.data(), data.size());
      const double bpp = double(stream.size()) * 8 / npts;
      std::printf("%-10s %8d %12.3f %12.1f %12.2f\n",
                  sperr::wavelet::to_string(kernel), idx, bpp, q.psnr,
                  sperr::metrics::accuracy_gain(q.sigma, q.rmse, bpp));
    }
    bench::print_rule();
  }
  std::printf("Expectation: CDF 9/7 achieves the best gain at every level —\n"
              "the basis of the paper's kernel choice.\n");
}

void ablation_set_partitioning() {
  bench::print_title(
      "Ablation B (§III-B): SPECK set partitioning vs dense bitplane coding");
  const auto& field = bench::field_by_label("Visc");
  const auto data = bench::load_field(field);
  const double npts = double(data.size());

  std::printf("%-8s %14s %14s %14s %10s\n", "idx", "SPECK BPP", "dense BPP",
              "dense+LZ BPP", "savings");
  bench::print_rule();
  for (const int idx : {10, 20, 30, 40}) {
    const double t = sperr::tolerance_from_idx(data.data(), data.size(), idx);
    std::vector<double> coeffs = data;
    sperr::wavelet::forward_dwt(coeffs.data(), field.dims);
    const auto speck = sperr::speck::encode(coeffs.data(), field.dims, 1.5 * t);
    const auto dense = dense_bitplane_encode(coeffs.data(), field.dims, 1.5 * t);
    const auto dense_lz = sperr::lossless::compress(dense);

    const double speck_bpp = double(speck.size()) * 8 / npts;
    const double dense_bpp = double(dense.size()) * 8 / npts;
    const double dense_lz_bpp = double(dense_lz.size()) * 8 / npts;
    std::printf("%-8d %14.3f %14.3f %14.3f %9.1f%%\n", idx, speck_bpp, dense_bpp,
                dense_lz_bpp,
                100.0 * (1.0 - speck_bpp / std::min(dense_bpp, dense_lz_bpp)));
  }
  bench::print_rule();
  std::printf("Expectation: set partitioning prunes insignificant regions in\n"
              "large groups; a dense significance map cannot, even with a\n"
              "lossless pass over it.\n");
}

void ablation_linearization() {
  bench::print_title(
      "Ablation C (§IV-C): outlier position linearization order");
  const auto& field = bench::field_by_label("Nyx");
  const auto data = bench::load_field(field);
  const Dims dims = field.dims;
  const double t = sperr::tolerance_from_idx(data.data(), data.size(), 20);
  sperr::Config cfg;
  cfg.tolerance = t;

  std::vector<sperr::outlier::Outlier> outliers;
  (void)bench::encode_field(data, dims, cfg, &outliers);
  std::printf("field %s, %zu outliers (%.2f%%)\n\n", field.label.c_str(),
              outliers.size(), 100.0 * double(outliers.size()) / double(data.size()));

  auto cost = [&](const std::vector<sperr::outlier::Outlier>& list,
                  uint64_t array_len) {
    sperr::outlier::EncodeStats stats;
    (void)sperr::outlier::encode(list, array_len, t, &stats);
    return double(stats.payload_bits) / double(stats.num_outliers);
  };

  // Row-major (the shipped choice).
  const double rowmajor = cost(outliers, data.size());

  // Morton order: positions remapped onto a 2^k cube's Z-curve.
  uint64_t side = 1;
  while (side < std::max({dims.x, dims.y, dims.z})) side *= 2;
  std::vector<sperr::outlier::Outlier> morton = outliers;
  for (auto& o : morton) {
    const uint64_t x = o.pos % dims.x;
    const uint64_t y = (o.pos / dims.x) % dims.y;
    const uint64_t z = o.pos / (dims.x * dims.y);
    o.pos = morton3(x, y, z);
  }
  const double morton_cost = cost(morton, side * side * side);

  // Random permutation: destroys whatever correlation exists.
  sperr::Rng rng(99);
  std::vector<uint64_t> perm(data.size());
  std::iota(perm.begin(), perm.end(), uint64_t(0));
  for (size_t i = perm.size(); i > 1; --i)
    std::swap(perm[i - 1], perm[rng.below(i)]);
  std::vector<sperr::outlier::Outlier> shuffled = outliers;
  for (auto& o : shuffled) o.pos = perm[o.pos];
  const double shuffled_cost = cost(shuffled, data.size());

  std::printf("%-24s %14s\n", "linearization", "bits/outlier");
  bench::print_rule();
  std::printf("%-24s %14.2f\n", "row-major (shipped)", rowmajor);
  std::printf("%-24s %14.2f\n", "Morton / Z-curve", morton_cost);
  std::printf("%-24s %14.2f\n", "random permutation", shuffled_cost);
  bench::print_rule();
  std::printf("Expectation: all within a fraction of a bit — outlier positions\n"
              "carry (almost) no spatial correlation, so the paper's simple\n"
              "row-major flattening loses nothing (§IV-C, Fig. 1).\n");
}

void ablation_lossless_pass() {
  bench::print_title("Ablation D (§V): the final lossless pass");
  std::printf("%-10s %14s %14s %10s\n", "case", "raw BPP", "w/ lossless",
              "saved");
  bench::print_rule();
  for (const char* label : {"Press", "Visc", "Nyx"}) {
    const auto& field = bench::field_by_label(label);
    const auto data = bench::load_field(field);
    for (const int idx : {10, 30}) {
      sperr::Config cfg;
      cfg.tolerance = sperr::tolerance_from_idx(data.data(), data.size(), idx);
      sperr::Stats with_stats, without_stats;
      cfg.lossless_pass = false;
      const auto raw = sperr::compress(data.data(), field.dims, cfg, &without_stats);
      cfg.lossless_pass = true;
      const auto packed = sperr::compress(data.data(), field.dims, cfg, &with_stats);
      std::printf("%s-%-6d %14.3f %14.3f %9.1f%%\n", label, idx,
                  without_stats.bpp, with_stats.bpp,
                  100.0 * (1.0 - with_stats.bpp / without_stats.bpp));
    }
  }
  bench::print_rule();
  std::printf("Expectation: a few percent at loose tolerances (structured\n"
              "significance maps), shrinking toward zero as planes deepen and\n"
              "the bitstream approaches incompressibility.\n");
}

}  // namespace

int main() {
  ablation_wavelet_kernel();
  ablation_set_partitioning();
  ablation_linearization();
  ablation_lossless_pass();
  return 0;
}
