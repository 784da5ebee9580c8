#include "baselines/zfplike/block_codec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

namespace sperr::zfplike {

namespace {

// Fixed-point scale: values are aligned to the block's common exponent and
// scaled to ~2^58, leaving 5 headroom bits for the transform's internal
// additions (the lifting steps each halve after adding).
constexpr int kFracBits = 58;
constexpr int kIntPrec = 62;  ///< coded bitplanes per value

// Negabinary mask: converts two's complement to negabinary so that small
// magnitudes have leading zero bits regardless of sign.
constexpr uint64_t kNbMask = 0xaaaaaaaaaaaaaaaaULL;

inline uint64_t int2nb(int64_t x) {
  return (uint64_t(x) + kNbMask) ^ kNbMask;
}

inline int64_t nb2int(uint64_t x) {
  return int64_t((x ^ kNbMask) - kNbMask);
}

// The lifts run in uint64_t: additions wrap modulo 2^64 (a corrupt stream
// can hand the inverse transform any 64-bit values, and signed overflow
// would be undefined), while asr() keeps zfp's arithmetic right shifts.
inline uint64_t asr(uint64_t x, int s) { return uint64_t(int64_t(x) >> s); }

// zfp's forward decorrelating lifting transform on one 4-vector.
inline void fwd_lift(int64_t& x0, int64_t& y0, int64_t& z0, int64_t& w0) {
  uint64_t x = uint64_t(x0), y = uint64_t(y0), z = uint64_t(z0), w = uint64_t(w0);
  x += w; x = asr(x, 1); w -= x;
  z += y; z = asr(z, 1); y -= z;
  x += z; x = asr(x, 1); z -= x;
  w += y; w = asr(w, 1); y -= w;
  w += asr(y, 1); y -= asr(w, 1);
  x0 = int64_t(x), y0 = int64_t(y), z0 = int64_t(z), w0 = int64_t(w);
}

inline void inv_lift(int64_t& x0, int64_t& y0, int64_t& z0, int64_t& w0) {
  uint64_t x = uint64_t(x0), y = uint64_t(y0), z = uint64_t(z0), w = uint64_t(w0);
  y += asr(w, 1); w -= asr(y, 1);
  y += w; w <<= 1; w -= y;
  z += x; x <<= 1; x -= z;
  y += z; z <<= 1; z -= y;
  w += x; x <<= 1; x -= w;
  x0 = int64_t(x), y0 = int64_t(y), z0 = int64_t(z), w0 = int64_t(w);
}

template <class Lift>
void transform(int64_t* v, int dims, Lift&& lift) {
  const int nx = kBlockSide;
  if (dims == 1) {
    lift(v[0], v[1], v[2], v[3]);
    return;
  }
  const int ny = kBlockSide;
  const int nz = dims == 3 ? kBlockSide : 1;
  for (int z = 0; z < nz; ++z)  // along x
    for (int y = 0; y < ny; ++y) {
      int64_t* p = v + nx * (y + ny * z);
      lift(p[0], p[1], p[2], p[3]);
    }
  for (int z = 0; z < nz; ++z)  // along y
    for (int x = 0; x < nx; ++x) {
      int64_t* p = v + x + nx * ny * z;
      lift(p[0 * nx], p[1 * nx], p[2 * nx], p[3 * nx]);
    }
  if (dims == 3)
    for (int y = 0; y < ny; ++y)  // along z
      for (int x = 0; x < nx; ++x) {
        int64_t* p = v + x + nx * y;
        const int s = nx * ny;
        lift(p[0 * s], p[1 * s], p[2 * s], p[3 * s]);
      }
}

/// Sequency-order permutation: coefficients sorted by total frequency
/// (i + j + k), ties broken by linear index — low-frequency (large) first.
const std::array<int, 64>& permutation(int dims) {
  static const auto make = [](int d) {
    std::array<int, 64> perm{};
    const int n = block_points(d);
    std::array<int, 64> idx{};
    std::iota(idx.begin(), idx.begin() + n, 0);
    std::stable_sort(idx.begin(), idx.begin() + n, [d](int a, int b) {
      auto key = [d](int i) {
        const int x = i % 4, y = (i / 4) % 4, z = d == 3 ? i / 16 : 0;
        return x + y + z;
      };
      return key(a) < key(b);
    });
    for (int i = 0; i < n; ++i) perm[size_t(i)] = idx[size_t(i)];
    return perm;
  };
  static const std::array<int, 64> p1 = make(1);
  static const std::array<int, 64> p2 = make(2);
  static const std::array<int, 64> p3 = make(3);
  return dims == 1 ? p1 : dims == 2 ? p2 : p3;
}

/// A bit budget wrapper so fixed-rate blocks never exceed maxbits.
struct BudgetWriter {
  WordBitWriter& bw;
  size_t left;

  bool put(bool bit) {
    if (left == 0) return false;
    --left;
    bw.put_bits(bit, 1);
    return true;
  }
};

struct BudgetReader {
  BitReader& br;
  size_t left;

  bool get(bool& bit) {
    if (left == 0) return false;
    --left;
    bit = br.get();
    return true;
  }
};

// Planes to code for a block with common exponent emax under fixed-accuracy
// coding: everything at or above the tolerance's exponent, plus guard bits
// covering the transform's worst-case error amplification (zfp's 2 per
// dimension, plus 2 more for this codec's coarser fixed-point scaling).
int max_precision(int emax, int minexp, int dims) {
  return std::clamp(emax - minexp + 2 * (dims + 1) + 2, 0, kIntPrec);
}

}  // namespace

void encode_block(WordBitWriter& bw, const double* block, const BlockParams& params) {
  const int n = block_points(params.dims);
  BudgetWriter out{bw, params.maxbits};

  // Block-floating-point alignment: common exponent of the largest value.
  double max_abs = 0.0;
  for (int i = 0; i < n; ++i) max_abs = std::max(max_abs, std::fabs(block[i]));
  if (max_abs == 0.0) {
    out.put(false);  // empty block
    return;
  }
  int emax;
  (void)std::frexp(max_abs, &emax);  // 2^(emax-1) <= max_abs < 2^emax
  if (!out.put(true)) return;
  // Biased 12-bit exponent (doubles span ~[-1074, 1024]).
  const uint32_t biased = uint32_t(emax + 2048);
  for (int b = 0; b < 12; ++b)
    if (!out.put((biased >> b) & 1u)) return;

  // Fixed-point conversion and decorrelation.
  int64_t iv[64];
  const double scale = std::ldexp(1.0, kFracBits - emax);
  for (int i = 0; i < n; ++i) iv[i] = int64_t(std::llround(block[i] * scale));
  transform(iv, params.dims, fwd_lift);

  // Reorder to sequency order and map to negabinary.
  const auto& perm = permutation(params.dims);
  uint64_t u[64];
  for (int i = 0; i < n; ++i) u[i] = int2nb(iv[perm[size_t(i)]]);

  // Embedded group-tested bitplane coding (zfp's encode_ints loop).
  const int maxprec = max_precision(emax, params.minexp, params.dims);
  const int kmin = kIntPrec - maxprec;
  int g = 0;  // group boundary: leading coefficients coded verbatim
  for (int k = kIntPrec - 1; k >= kmin; --k) {
    uint64_t x = 0;
    for (int i = 0; i < n; ++i) x |= ((u[i] >> k) & 1u) << i;
    // Verbatim bits for coefficients already inside the group boundary.
    for (int i = 0; i < g; ++i, x >>= 1)
      if (!out.put(x & 1u)) return;
    // Unary run-length growth of the group boundary. For the final
    // coefficient the group-test bit doubles as the data bit (zfp's layout),
    // so no verbatim bit follows it.
    while (g < n) {
      if (!out.put(x != 0)) return;
      if (x == 0) break;
      while (g < n - 1) {
        if (x & 1u) {
          if (!out.put(true)) return;
          break;
        }
        if (!out.put(false)) return;
        x >>= 1;
        ++g;
      }
      x >>= 1;
      ++g;
    }
  }
}

void pad_block(WordBitWriter& bw, size_t written, size_t target) {
  if (target > written) bw.put_zeros(target - written);
}

void decode_block(BitReader& br, double* block, const BlockParams& params) {
  const int n = block_points(params.dims);
  std::fill(block, block + n, 0.0);
  BudgetReader in{br, params.maxbits};

  bool nonzero;
  if (!in.get(nonzero) || !nonzero) return;
  uint32_t biased = 0;
  for (int b = 0; b < 12; ++b) {
    bool bit;
    if (!in.get(bit)) return;
    biased |= uint32_t(bit) << b;
  }
  const int emax = int(biased) - 2048;

  uint64_t u[64] = {};
  const int maxprec = max_precision(emax, params.minexp, params.dims);
  const int kmin = kIntPrec - maxprec;
  int g = 0;
  for (int k = kIntPrec - 1; k >= kmin; --k) {
    bool bit;
    for (int i = 0; i < g; ++i) {
      if (!in.get(bit)) goto done;
      if (bit) u[i] |= uint64_t(1) << k;
    }
    while (g < n) {
      if (!in.get(bit)) goto done;
      if (!bit) break;  // group test: no more ones in this plane
      while (g < n - 1) {
        if (!in.get(bit)) goto done;
        if (bit) break;
        ++g;
      }
      u[g] |= uint64_t(1) << k;
      ++g;
    }
  }
done:
  // Undo negabinary + reorder + transform + scaling.
  const auto& perm = permutation(params.dims);
  int64_t iv[64] = {};
  for (int i = 0; i < n; ++i) iv[perm[size_t(i)]] = nb2int(u[i]);
  transform(iv, params.dims, inv_lift);
  const double scale = std::ldexp(1.0, emax - kFracBits);
  for (int i = 0; i < n; ++i) block[i] = double(iv[i]) * scale;
}

}  // namespace sperr::zfplike
