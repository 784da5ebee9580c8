#include "sperr/chunker.h"

#include <algorithm>

namespace sperr {

namespace {

// Split extent n into segments of `pref` with the remainder folded into the
// final segment when it would be smaller than half a chunk; this avoids the
// degenerate slivers (e.g. a 1-voxel-thin chunk) that hurt wavelet quality.
std::vector<std::pair<size_t, size_t>> segments(size_t n, size_t pref) {
  std::vector<std::pair<size_t, size_t>> out;  // (offset, length)
  pref = std::min(std::max<size_t>(pref, 1), n);
  size_t off = 0;
  while (n - off > pref) {
    const size_t rest = n - off - pref;
    if (rest < pref / 2) {
      // Absorb the sliver into this final, slightly longer segment.
      out.emplace_back(off, n - off);
      return out;
    }
    out.emplace_back(off, pref);
    off += pref;
  }
  out.emplace_back(off, n - off);
  return out;
}

}  // namespace

std::vector<Chunk> make_chunks(Dims volume, Dims preferred) {
  const auto xs = segments(volume.x, preferred.x);
  const auto ys = segments(volume.y, preferred.y);
  const auto zs = segments(volume.z, preferred.z);
  std::vector<Chunk> chunks;
  chunks.reserve(xs.size() * ys.size() * zs.size());
  for (const auto& [zo, zl] : zs)
    for (const auto& [yo, yl] : ys)
      for (const auto& [xo, xl] : xs)
        chunks.push_back({Dims{xo, yo, zo}, Dims{xl, yl, zl}});
  return chunks;
}

Dims largest_chunk(Dims volume, Dims preferred) {
  // segments() emits full `pref` segments and folds a remainder shorter than
  // pref / 2 into the last one, so the longest is pref + that remainder.
  const auto longest = [](size_t n, size_t pref) {
    if (n == 0) return n;
    pref = std::min(std::max<size_t>(pref, 1), n);
    const size_t rest = n % pref;
    return rest < pref / 2 ? pref + rest : pref;
  };
  return {longest(volume.x, preferred.x), longest(volume.y, preferred.y),
          longest(volume.z, preferred.z)};
}

}  // namespace sperr
