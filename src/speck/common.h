#pragma once

// Shared SPECK machinery: the rectangular set ("box") that set partitioning
// operates on, the deterministic split rule, and the stream header. Encoder
// and decoder must perform bit-for-bit identical set traversals, so all
// traversal-order-defining logic lives here.

#include <cstdint>

#include "common/byteio.h"
#include "common/types.h"

namespace sperr::speck {

/// Exclusive upper bound on the coefficients one SPECK stream codes: set
/// node ids, leaf ordinals and linear indices are uint32, and the decoder
/// tags a coefficient's linear index in bit 31 (with its kind in a worklist
/// entry, its sign in the LSP). The container layer keeps chunks below it
/// (docs/FORMAT.md), speck::encode throws and speck::decode answers
/// corrupt_stream above it.
inline constexpr size_t kMaxCoefficients = size_t(1) << 31;

/// An axis-aligned box of coefficients within the (transformed) grid.
struct Box {
  uint32_t x = 0, y = 0, z = 0;     ///< origin
  uint32_t nx = 1, ny = 1, nz = 1;  ///< extents (>= 1)

  [[nodiscard]] constexpr uint64_t count() const { return uint64_t(nx) * ny * nz; }
  [[nodiscard]] constexpr bool is_single() const { return nx == 1 && ny == 1 && nz == 1; }
};

/// Split a box in half along every axis with extent > 1 (up to 8 children).
/// The first half along each axis gets ceil(n/2) samples, which aligns the
/// top-level split with the approximation|detail boundary of the
/// de-interleaved wavelet layout. Children are emitted x-fastest so both
/// encoder and decoder visit them in the same order. Returns child count.
constexpr int split_box(const Box& b, Box out[8]) {
  const uint32_t hx = (b.nx + 1) / 2, hy = (b.ny + 1) / 2, hz = (b.nz + 1) / 2;
  const int px = b.nx > 1 ? 2 : 1, py = b.ny > 1 ? 2 : 1, pz = b.nz > 1 ? 2 : 1;
  int n = 0;
  for (int zp = 0; zp < pz; ++zp)
    for (int yp = 0; yp < py; ++yp)
      for (int xp = 0; xp < px; ++xp) {
        Box c;
        c.x = b.x + (xp ? hx : 0);
        c.nx = xp ? b.nx - hx : hx;
        c.y = b.y + (yp ? hy : 0);
        c.ny = yp ? b.ny - hy : hy;
        c.z = b.z + (zp ? hz : 0);
        c.nz = zp ? b.nz - hz : hz;
        out[n++] = c;
      }
  return n;
}

/// Maximum split depth a grid can reach (buckets for the LIS).
inline uint32_t max_depth(Dims dims) {
  uint32_t m = 1;
  size_t ext = dims.x;
  if (dims.y > ext) ext = dims.y;
  if (dims.z > ext) ext = dims.z;
  while ((size_t(1) << m) < ext) ++m;
  return m + 2;  // headroom for ceil-halving of odd extents
}

/// SPECK stream header, prepended to the bit payload.
struct Header {
  static constexpr uint16_t kMagic = 0x5343;  // "SC"
  static constexpr size_t kBytes = 2 + 8 + 4 + 8;

  double q = 1.0;       ///< finest quantization step (coefficients scale by 1/q)
  int32_t n_max = -1;   ///< top bitplane exponent; -1 => nothing significant
  uint64_t nbits = 0;   ///< exact payload length in bits (embedded truncation point)

  void serialize(std::vector<uint8_t>& out) const {
    put_u16(out, kMagic);
    put_f64(out, q);
    put_u32(out, uint32_t(n_max));
    put_u64(out, nbits);
  }

  /// Serialize, then append the payload's first `nbits` bits as whole bytes
  /// with the bits past `nbits` zeroed — the one stream layout, so a stream
  /// cut to a budget equals one encoded straight to it.
  void write(std::vector<uint8_t>& out, const uint8_t* payload) const {
    serialize(out);
    out.insert(out.end(), payload, payload + (nbits + 7) / 8);
    if (nbits % 8) out.back() &= uint8_t((1u << (nbits % 8)) - 1u);
  }

  [[nodiscard]] Status deserialize(ByteReader& br) {
    if (br.u16() != kMagic) return Status::corrupt_stream;
    q = br.f64();
    n_max = int32_t(br.u32());
    nbits = br.u64();
    if (!br.ok()) return Status::truncated_stream;
    if (!(q > 0.0)) return Status::corrupt_stream;
    return Status::ok;
  }
};

}  // namespace sperr::speck
