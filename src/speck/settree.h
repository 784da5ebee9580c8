#pragma once

// Flattened SPECK set-partition hierarchy. The reference coder materializes
// sets lazily as 40-byte box entries and rediscovers each set's children
// (split_box) and maximum magnitude (a strided box scan) on demand, every
// plane. This tree precomputes both, once, into contiguous SoA arrays:
//
//   * structure  — node 0 is the root (whole grid); an internal node's
//     children occupy the contiguous id range [first(i), first(i)+nchild(i))
//     in exactly the order split_box() emits them, so a traversal that walks
//     child ids reproduces the reference traversal bit for bit;
//   * magnitudes — per node, the maximum significance plane of the
//     coefficients it covers, folded bottom-up in one reverse sweep.
//
// Ids are allocated by a depth-first walk (children always follow their
// parent), which makes the bottom-up fold a reverse linear sweep and keeps a
// subtree's nodes adjacent in memory — the generalized Morton layout: for a
// power-of-two cube, leaves appear exactly in Z-order. A leaf stores its
// coefficient's linear index instead of a child range; the encoder swaps it
// for the leaf's ordinal in that order (number_leaves).
//
// The structure depends only on the grid extents, so encoder and decoder
// build identical trees without communicating anything.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "speck/common.h"

namespace sperr::speck {

/// Significance plane of a dead-zone coefficient (|c|/q <= 1): tested
/// planes are n >= 0, so -1 means "never significant".
inline constexpr int16_t kDeadPlane = -1;

/// Largest representable plane: thresholds 2^n for n > 1023 overflow to
/// +inf, where even an infinite magnitude fails the strict `m > thrd` test.
inline constexpr int16_t kMaxPlane = 1023;

/// Significance plane of a scaled magnitude m = |c| / q: the largest n >= 0
/// with m > 2^n, or kDeadPlane when there is none. Matches the reference
/// coder's per-plane `m > ldexp(1.0, n)` test for every n, and its top-plane
/// search, exactly (strict inequality: m == 2^k is NOT significant at k).
inline int16_t plane_of(double m) {
  if (!(m > 1.0)) return kDeadPlane;  // dead zone; also 0 and NaN
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(m));
  __builtin_memcpy(&bits, &m, sizeof(bits));
  const int e = int((bits >> 52) & 0x7ff) - 1023;  // m > 1 => positive normal
  if (e > 1023) return kMaxPlane;                  // +inf
  const bool exact_pow2 = (bits & ((uint64_t(1) << 52) - 1)) == 0;
  return int16_t(exact_pow2 ? e - 1 : e);
}

/// The flattened set-partition tree. Node ids are uint32: callers must
/// ensure dims.total() < kMaxCoefficients (the speck::encode/decode entry
/// points reject larger grids).
///
/// Storage is one interleaved 8-byte record per node: the sorting-pass
/// descent reads a child's structure and max plane together, so each node
/// visit touches one cache line instead of three parallel arrays.
class SetTree {
 public:
  /// Build the structure for `dims`. Deterministic and data-independent.
  void build(Dims dims);

  /// Encoder setup, one reverse sweep after build(): every leaf's payload
  /// becomes its ordinal in id order (the DFS leaf order, 0 .. leaves-1),
  /// its plane becomes `leaf(ordinal, coeff_index)`, and the per-node max
  /// planes fold bottom-up. The encoder stores its per-coefficient data in
  /// this order, so a traversal reads it near-sequentially.
  template <class Leaf>
  void number_leaves(Leaf&& leaf) {
    // DFS allocation puts every child after its parent, so one reverse
    // sweep sees all children before their parent.
    uint32_t ord = leaves_;
    for (size_t i = nodes_.size(); i-- > 0;) {
      Node& nd = nodes_[i];
      if (nd.nchild == 0) {
        nd.plane = leaf(--ord, nd.first);
        nd.first = ord;
        continue;
      }
      int16_t mx = nodes_[nd.first].plane;
      for (uint32_t c = 1; c < nd.nchild; ++c)
        mx = std::max(mx, nodes_[nd.first + c].plane);
      nd.plane = mx;
    }
  }

  [[nodiscard]] size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] bool is_leaf(uint32_t id) const { return nodes_[id].nchild == 0; }
  [[nodiscard]] uint32_t first_child(uint32_t id) const { return nodes_[id].first; }
  [[nodiscard]] uint32_t child_count(uint32_t id) const { return nodes_[id].nchild; }
  /// Linear coefficient index of a leaf node (before number_leaves).
  [[nodiscard]] uint32_t coeff_index(uint32_t id) const { return nodes_[id].first; }
  /// DFS ordinal of a leaf node (after number_leaves).
  [[nodiscard]] uint32_t leaf_ordinal(uint32_t id) const { return nodes_[id].first; }
  [[nodiscard]] int16_t plane(uint32_t id) const { return nodes_[id].plane; }

 private:
  struct Node {
    uint32_t first;   ///< internal: first child id; leaf: coeff index or ordinal
    uint16_t nchild;  ///< 0 for leaves, 2..8 otherwise
    int16_t plane;    ///< max significance plane over the set (number_leaves)
  };
  static_assert(sizeof(Node) == 8);

  std::vector<Node> nodes_;
  uint32_t leaves_ = 0;  ///< leaf count == coefficient count
};

}  // namespace sperr::speck
