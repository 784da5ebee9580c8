#include "wavelet/dwt.h"

#include <algorithm>

#include "wavelet/cdf97.h"

namespace sperr::wavelet {

namespace {

// ---------------------------------------------------------------------------
// Blocked drivers. One axis pass is described by the geometry of its lines:
// every line has `n` samples spaced `stride` apart, and line (u, v) starts
// at offset u * bu + v * bv. Lines are enumerated u-fastest and batched
// kLineBatch at a time into an SoA tile (sample-major, lanes innermost), so
//   * Y axis (bu = 1): a tile row is nb adjacent-x elements — the strided
//     per-line walk becomes contiguous loads/stores;
//   * Z axis (bu = 1): same, one contiguous nb-run per z plane;
//   * X axis (bu = dims.x): the gather reads each line contiguously and
//     transposes it into the tile.
// The batched kernels then sweep the tile with lane-parallel lifting steps.

struct AxisPass {
  size_t n;       ///< samples per line
  size_t stride;  ///< distance between consecutive samples of a line
  size_t n_u;     ///< lines along the fast enumeration axis
  size_t n_v;     ///< lines along the slow enumeration axis
  size_t bu;      ///< offset step per u
  size_t bv;      ///< offset step per v
};

AxisPass pass_z(Dims dims, Dims box) {
  return {box.z, dims.x * dims.y, box.x, box.y, 1, dims.x};
}

// Run `fn(tile, n, nb, scratch)` over every line batch of the pass. The
// tile and its scratch live in the arena and are released on return.
template <class BatchFn>
void blocked_pass(double* data, const AxisPass& p, Arena& arena, BatchFn fn) {
  if (p.n < 2) return;  // the kernels are no-ops on such lines
  Arena::Scope scope(arena);
  double* tile = arena.alloc<double>(p.n * kLineBatch);
  double* scratch = arena.alloc<double>(p.n * kLineBatch);

  const size_t nlines = p.n_u * p.n_v;
  size_t base[kLineBatch];
  for (size_t l0 = 0; l0 < nlines; l0 += kLineBatch) {
    const size_t nb = std::min(kLineBatch, nlines - l0);
    const size_t u0 = l0 % p.n_u;
    const size_t v0 = l0 / p.n_u;
    // Lanes that are consecutive along u with bu == 1 sit adjacent in
    // memory; every tile row is then one contiguous nb-wide run.
    if (p.bu == 1 && u0 + nb <= p.n_u) {
      const double* src0 = data + u0 * p.bu + v0 * p.bv;
      for (size_t i = 0; i < p.n; ++i) {
        const double* src = src0 + i * p.stride;
        double* dst = tile + i * nb;
        for (size_t j = 0; j < nb; ++j) dst[j] = src[j];
      }
      const double* res = fn(tile, p.n, nb, scratch);
      double* out0 = data + u0 * p.bu + v0 * p.bv;
      for (size_t i = 0; i < p.n; ++i) {
        const double* src = res + i * nb;
        double* dst = out0 + i * p.stride;
        for (size_t j = 0; j < nb; ++j) dst[j] = src[j];
      }
      continue;
    }
    // General case (x-axis tiles, u-boundary-crossing batches): per-lane
    // start offsets.
    for (size_t j = 0; j < nb; ++j) {
      const size_t u = (l0 + j) % p.n_u;
      const size_t v = (l0 + j) / p.n_u;
      base[j] = u * p.bu + v * p.bv;
    }
    if (p.stride == 1) {
      for (size_t j = 0; j < nb; ++j) {
        const double* src = data + base[j];
        for (size_t i = 0; i < p.n; ++i) tile[i * nb + j] = src[i];
      }
      const double* res = fn(tile, p.n, nb, scratch);
      for (size_t j = 0; j < nb; ++j) {
        double* dst = data + base[j];
        for (size_t i = 0; i < p.n; ++i) dst[i] = res[i * nb + j];
      }
    } else {
      for (size_t i = 0; i < p.n; ++i) {
        const size_t off = i * p.stride;
        double* dst = tile + i * nb;
        for (size_t j = 0; j < nb; ++j) dst[j] = data[base[j] + off];
      }
      const double* res = fn(tile, p.n, nb, scratch);
      for (size_t i = 0; i < p.n; ++i) {
        const size_t off = i * p.stride;
        const double* src = res + i * nb;
        for (size_t j = 0; j < nb; ++j) data[base[j] + off] = src[j];
      }
    }
  }
}

// X and Y passes only couple samples within one z-plane, so they can be
// fused plane-by-plane: transform a plane's x lines, then its y lines (or
// the reverse for synthesis) while the plane (512 KiB at 256²) is still
// cache-resident, instead of streaming the whole box from memory once per
// axis. The per-line arithmetic is unchanged — output stays bit-identical.
template <class BatchFn>
void blocked_pass_xy(double* data, Dims dims, Dims box, bool do_x, bool do_y,
                     bool x_first, Arena& arena, BatchFn fn) {
  const size_t plane_elems = dims.x * dims.y;
  const AxisPass px{box.x, 1, box.y, 1, dims.x, 0};
  const AxisPass py{box.y, dims.x, box.x, 1, 1, 0};
  for (size_t z = 0; z < box.z; ++z) {
    double* plane = data + z * plane_elems;
    if (x_first) {
      if (do_x) blocked_pass(plane, px, arena, fn);
      if (do_y) blocked_pass(plane, py, arena, fn);
    } else {
      if (do_y) blocked_pass(plane, py, arena, fn);
      if (do_x) blocked_pass(plane, px, arena, fn);
    }
  }
}

// The one synthesis loop: undo the levels >= keep_levels, coarsest first,
// each level's axes in the reverse order of analysis.
void synthesize(double* data, Dims dims, size_t keep_levels, Kernel kernel,
                Arena* arena) {
  Arena& a = arena ? *arena : tls_arena();
  const LevelPlan plan = plan_levels(dims);
  const auto boxes = lowpass_boxes(dims);
  const auto synthesis = [kernel](double* tile, size_t n, size_t nb, double* s) {
    return batch_synthesis(kernel, tile, n, nb, s);
  };
  for (size_t l = boxes.size(); l-- > keep_levels;) {
    const Dims box = boxes[l];
    if (l < plan.lz) blocked_pass(data, pass_z(dims, box), a, synthesis);
    const bool dx = l < plan.lx, dy = l < plan.ly;
    if (dx || dy)
      blocked_pass_xy(data, dims, box, dx, dy, /*x_first=*/false, a, synthesis);
  }
}

}  // namespace

size_t LevelPlan::max() const {
  return std::max({lx, ly, lz});
}

LevelPlan plan_levels(Dims dims) {
  return {num_levels(dims.x), num_levels(dims.y), num_levels(dims.z)};
}

std::vector<Dims> lowpass_boxes(Dims dims) {
  const LevelPlan plan = plan_levels(dims);
  std::vector<Dims> boxes;
  Dims cur = dims;
  for (size_t l = 0; l < plan.max(); ++l) {
    boxes.push_back(cur);
    if (l < plan.lx) cur.x = approx_len(cur.x);
    if (l < plan.ly) cur.y = approx_len(cur.y);
    if (l < plan.lz) cur.z = approx_len(cur.z);
  }
  return boxes;
}

void forward_dwt(double* data, Dims dims, Kernel kernel, Arena* arena) {
  Arena& a = arena ? *arena : tls_arena();
  const LevelPlan plan = plan_levels(dims);
  const auto boxes = lowpass_boxes(dims);
  const auto analysis = [kernel](double* tile, size_t n, size_t nb, double* s) {
    return batch_analysis(kernel, tile, n, nb, s);
  };
  for (size_t l = 0; l < boxes.size(); ++l) {
    const Dims box = boxes[l];
    const bool dx = l < plan.lx, dy = l < plan.ly;
    if (dx || dy)
      blocked_pass_xy(data, dims, box, dx, dy, /*x_first=*/true, a, analysis);
    if (l < plan.lz) blocked_pass(data, pass_z(dims, box), a, analysis);
  }
}

void inverse_dwt(double* data, Dims dims, Kernel kernel, Arena* arena) {
  synthesize(data, dims, 0, kernel, arena);
}

void inverse_dwt_partial(double* data, Dims dims, size_t keep_levels,
                         Arena* arena) {
  synthesize(data, dims, keep_levels, Kernel::cdf97, arena);
}

Dims lowpass_box_at(Dims dims, size_t levels) {
  const LevelPlan plan = plan_levels(dims);
  Dims cur = dims;
  const size_t n = std::min(levels, plan.max());
  for (size_t l = 0; l < n; ++l) {
    if (l < plan.lx) cur.x = approx_len(cur.x);
    if (l < plan.ly) cur.y = approx_len(cur.y);
    if (l < plan.lz) cur.z = approx_len(cur.z);
  }
  return cur;
}

double lowpass_dc_gain() {
  static const double gain = [] {
    // One analysis pass on a long constant line; read an interior
    // approximation coefficient (boundary effects decay within ~4 samples).
    std::vector<double> line(256, 1.0), scratch(256);
    return cdf97_analysis_batch(line.data(), line.size(), 1, scratch.data())[64];
  }();
  return gain;
}

}  // namespace sperr::wavelet
