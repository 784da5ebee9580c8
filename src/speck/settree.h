#pragma once

// Flattened SPECK set-partition hierarchy, shared read-only by every coder
// call on grids of the same extents. The reference coder materializes sets
// lazily as 40-byte box entries and rediscovers each set's children
// (split_box) on demand, every plane; this tree precomputes the structure
// once:
//
//   * only sets of two or more coefficients get a record; a single
//     coefficient (a leaf) is implicit. A set with a leaf child has every
//     extent <= 3 (a child extent is ceil(n/2) or floor(n/2), which is 1
//     only for n <= 3), so its leaf children's DFS ordinals and linear
//     indices follow from its origin, its first leaf ordinal and a 27-way
//     extent code through two small tables;
//   * node 0 is the root; a set's children that are sets themselves occupy
//     the contiguous id range starting at first, in split_box() order, and
//     ids are handed out by a depth-first walk, so every child follows its
//     parent (a reverse sweep is a bottom-up fold);
//   * leaf ordinals number the coefficients in depth-first order of the
//     split_box() traversal, so a set covers one contiguous ordinal range
//     starting at leaf0 — for a power-of-two cube that is Z-order;
//   * the build counts the entries (sets and leaves) at each depth, the
//     root at depth 0. A coder lists an entry in the worklist of its depth
//     at most once at a time, so these counts size the worklists once.
//
// The structure depends only on the grid extents, never on the data, so
// encoder and decoder use identical trees without communicating anything.
// Data-dependent state (the encoder's max planes and leaf-order values)
// lives in per-call arrays indexed by node id and leaf ordinal.

#include <array>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
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

/// The decoder's worklist entries are uint32: a set's node id, or
/// kLeafTag | a single coefficient's linear index. Both stay below
/// kMaxCoefficients = 2^31, so bit 31 is free for the tag. (The encoder's
/// leaf entries carry the coefficient's sign and magnitude instead, under a
/// tag of their own.)
inline constexpr uint32_t kLeafTag = uint32_t(1) << 31;

/// Children of a set whose extents are all <= 3, the only sets with single
/// coefficients among their children, per extent code
/// (nx-1) + 3(ny-1) + 9(nz-1): child j's DFS ordinal offset from the set's
/// first leaf, and its (dx, dy, dz) offset from the set's origin.
struct SmallSets {
  uint8_t ordinal[27][8] = {};
  uint8_t delta[27][8][3] = {};
};

constexpr SmallSets make_small_sets() {
  SmallSets t;
  for (uint32_t code = 1; code < 27; ++code) {
    Box b;
    b.nx = code % 3 + 1;
    b.ny = code / 3 % 3 + 1;
    b.nz = code / 9 + 1;
    Box children[8];
    const int nc = split_box(b, children);
    uint32_t ord = 0;
    for (int j = 0; j < nc; ++j) {
      t.ordinal[code][j] = uint8_t(ord);
      t.delta[code][j][0] = uint8_t(children[j].x);
      t.delta[code][j][1] = uint8_t(children[j].y);
      t.delta[code][j][2] = uint8_t(children[j].z);
      ord += uint32_t(children[j].count());
    }
  }
  return t;
}

inline constexpr SmallSets kSmallSets = make_small_sets();

/// The set-partition tree of one grid shape. Immutable once built; callers
/// must ensure dims.total() < kMaxCoefficients (speck::encode/decode reject
/// larger grids before asking for a tree).
class SetTree {
 public:
  /// One set of two or more coefficients: 16 bytes, so a descent reads a
  /// set's whole record from one cache line.
  struct Node {
    uint32_t first;   ///< id of the first child that is a set (0: none is)
    uint32_t leaf0;   ///< DFS ordinal of the first coefficient in the set
    uint32_t origin;  ///< linear index of the set's origin
    uint8_t nchild;   ///< 2..8 children, in split_box() order
    uint8_t leaves;   ///< bit j: child j is a single coefficient
    uint8_t shape;    ///< extent code (nx-1) + 3(ny-1) + 9(nz-1) when leaves != 0
  };
  static_assert(sizeof(Node) == 16);

  /// Build the structure for `dims`. Deterministic and data-independent.
  explicit SetTree(Dims dims);

  [[nodiscard]] Dims dims() const { return dims_; }
  /// Sets with a record (every set but the single coefficients). A grid of
  /// one coefficient has none: its root is a leaf.
  [[nodiscard]] size_t size() const { return nodes_.size(); }
  /// Heap and object bytes the tree holds.
  [[nodiscard]] size_t bytes() const {
    return sizeof(*this) + nodes_.capacity() * sizeof(Node) +
           depth_entries_.capacity() * sizeof(uint32_t);
  }
  /// Sets and leaves at each depth (the root's is 0), deepest last.
  [[nodiscard]] const std::vector<uint32_t>& entries_by_depth() const {
    return depth_entries_;
  }
  /// The root's worklist entry: node 0, or leaf 0 for a one-coefficient grid.
  [[nodiscard]] uint32_t root() const { return nodes_.empty() ? kLeafTag : 0; }
  [[nodiscard]] const Node& node(uint32_t id) const { return nodes_[id]; }

  /// DFS ordinal and linear index of child j of `nd`, a leaf (bit j of
  /// nd.leaves set).
  [[nodiscard]] static uint32_t leaf_ordinal(const Node& nd, unsigned j) {
    return nd.leaf0 + kSmallSets.ordinal[nd.shape][j];
  }
  [[nodiscard]] uint32_t leaf_index(const Node& nd, unsigned j) const {
    return nd.origin + offset_[nd.shape][j];
  }

 private:
  Dims dims_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> depth_entries_;
  /// kSmallSets' deltas as linear offsets in this grid.
  uint32_t offset_[27][8] = {};
};

/// Trees by grid extents, shared across calls and threads. A lookup of a
/// shape nobody holds builds it outside the lock, so different shapes build
/// concurrently while callers of the same shape wait for the one build.
/// Retention is capped: after a build, least recently used trees are
/// dropped until the retained bytes fit, and a tree larger than the whole
/// cap is handed out without being retained. A caller's lease keeps its
/// tree alive after eviction.
class SetTreeCache {
 public:
  /// Retention cap of the process-wide cache. The four chunk shapes of a
  /// 384x384x256 field at 256^3 chunks hold 146 MiB of trees
  /// (2,396,745 sets each: a 128-wide axis runs out first, and the sets
  /// below that split in four, not eight), so a chunk loop over them keeps
  /// every tree; LRU over fewer slots would miss on every lookup.
  static constexpr size_t kSharedCapacityBytes = size_t(192) << 20;

  explicit SetTreeCache(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// The cache speck::encode and speck::decode use.
  static SetTreeCache& shared();

  struct Lease {
    std::shared_ptr<const SetTree> tree;
    double build_s = 0.0;  ///< wall seconds of this call's build; 0 on a hit
  };

  /// The tree for `dims`, built on a miss.
  Lease get(Dims dims);

  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] size_t retained_bytes() const;
  [[nodiscard]] size_t builds() const;

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const SetTree>> tree;
    size_t bytes = 0;  ///< 0 while the build runs (never evicted then)
    uint64_t last_use = 0;
  };
  using Key = std::array<size_t, 3>;

  void evict_to_fit();

  const size_t capacity_;
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  size_t retained_ = 0;
  size_t builds_ = 0;
  uint64_t clock_ = 0;
};

}  // namespace sperr::speck
