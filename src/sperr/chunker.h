#pragma once

// Volume chunking for embarrassingly parallel execution (paper §III-D).
// A volume is cut into a grid of chunks of (at most) the preferred extents;
// trailing chunks along each axis absorb the remainder, so neither
// power-of-two extents nor divisibility is required.

#include <algorithm>
#include <vector>

#include "common/types.h"

namespace sperr {

struct Chunk {
  Dims origin{0, 0, 0};  ///< offset of this chunk within the volume
  Dims dims;             ///< extents of this chunk
};

/// Enumerate the chunk grid in z-major, x-fastest order.
std::vector<Chunk> make_chunks(Dims volume, Dims preferred);

/// Upper bound on make_chunks(volume, preferred).size(), computable without
/// materializing the grid. Decoders gate untrusted headers on this before
/// building the (48-bytes-per-entry) chunk vector: a header declaring huge
/// extents with tiny chunks must be rejected, not enumerated. Safe for any
/// plausible_dims volume (counts fit comfortably in 64 bits).
inline size_t chunk_count_bound(Dims volume, Dims preferred) {
  const auto per_axis = [](size_t n, size_t pref) {
    pref = std::min(std::max<size_t>(pref, 1), std::max<size_t>(n, 1));
    return n / pref + 1;
  };
  return per_axis(volume.x, preferred.x) * per_axis(volume.y, preferred.y) *
         per_axis(volume.z, preferred.z);
}

/// Extents of the largest chunk make_chunks(volume, preferred) produces,
/// computed per axis without enumerating the grid (so untrusted headers can
/// be checked before anything is allocated).
Dims largest_chunk(Dims volume, Dims preferred);

/// Copy one chunk out of a volume into a contiguous buffer of doubles,
/// widening a float volume (so the f32 compress path needs no whole-field
/// double copy).
template <typename T>
void gather_chunk(const T* volume, Dims vol_dims, const Chunk& chunk, double* out) {
  const Dims& d = chunk.dims;
  for (size_t z = 0; z < d.z; ++z)
    for (size_t y = 0; y < d.y; ++y) {
      const T* src =
          volume + vol_dims.index(chunk.origin.x, chunk.origin.y + y, chunk.origin.z + z);
      std::copy(src, src + d.x, out + d.index(0, y, z));
    }
}

/// Write a contiguous chunk buffer back into its place in the volume,
/// narrowing into a float volume (so the f32 decode path needs no
/// intermediate full-volume double field).
template <typename T>
void scatter_chunk(const double* chunk_data, const Chunk& chunk, T* volume,
                   Dims vol_dims) {
  const Dims& d = chunk.dims;
  for (size_t z = 0; z < d.z; ++z)
    for (size_t y = 0; y < d.y; ++y) {
      const double* src = chunk_data + d.index(0, y, z);
      std::copy(src, src + d.x,
                volume + vol_dims.index(chunk.origin.x, chunk.origin.y + y,
                                        chunk.origin.z + z));
    }
}

}  // namespace sperr
