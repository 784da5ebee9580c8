#include "speck/settree.h"

#include "common/timer.h"

namespace sperr::speck {

namespace {

using Extents = std::array<uint32_t, 3>;

/// Sets (boxes of two or more coefficients) in the tree under `b`. Children
/// take at most two extents per axis on each level, so the memo keeps this
/// to a few hundred distinct boxes for any grid.
uint64_t count_sets(const Box& b, std::map<Extents, uint64_t>& memo) {
  if (b.is_single()) return 0;
  const Extents key{b.nx, b.ny, b.nz};
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  Box children[8];
  const int nc = split_box(b, children);
  uint64_t n = 1;
  for (int i = 0; i < nc; ++i) n += count_sets(children[i], memo);
  memo.emplace(key, n);
  return n;
}

uint8_t extent_code(const Box& b) {
  return uint8_t((b.nx - 1) + 3 * (b.ny - 1) + 9 * (b.nz - 1));
}

}  // namespace

SetTree::SetTree(Dims dims) : dims_(dims) {
  // Deltas of unused codes may wrap; a real set's leaf lies inside the grid.
  for (size_t code = 1; code < 27; ++code)
    for (size_t j = 0; j < 8; ++j) {
      const uint8_t* d = kSmallSets.delta[code][j];
      offset_[code][j] = uint32_t(dims.index(d[0], d[1], d[2]));
    }

  Box root;
  root.nx = uint32_t(dims.x);
  root.ny = uint32_t(dims.y);
  root.nz = uint32_t(dims.z);
  depth_entries_.push_back(1);  // the root
  if (root.is_single()) return;
  std::map<Extents, uint64_t> memo;
  nodes_.resize(count_sets(root, memo));

  struct Frame {
    Box box;
    uint32_t id;
    uint32_t leaf0;
    uint32_t depth;
  };
  // Children of a set at depth d sit at d + 1, an inline leaf-only set's
  // leaves at d + 2.
  auto count_at = [this](uint32_t depth, uint32_t n) {
    if (depth_entries_.size() <= depth) depth_entries_.resize(depth + 1, 0);
    depth_entries_[depth] += n;
  };
  std::vector<Frame> stack;
  stack.reserve(64 * 8);
  stack.push_back({root, 0, 0, 0});
  uint32_t next = 1;
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    Box children[8];
    const int nc = split_box(f.box, children);
    Node& nd = nodes_[f.id];
    nd.first = next;
    nd.leaf0 = f.leaf0;
    nd.origin = uint32_t(dims.index(f.box.x, f.box.y, f.box.z));
    nd.nchild = uint8_t(nc);
    nd.leaves = 0;
    nd.shape = 0;
    Frame sets[8];
    int ns = 0;
    uint32_t ord = f.leaf0;
    count_at(f.depth + 1, uint32_t(nc));
    for (int i = 0; i < nc; ++i) {
      const Box& c = children[i];
      if (c.is_single()) {
        nd.leaves |= uint8_t(1u << i);
        nd.shape = extent_code(f.box);
      } else if (c.nx <= 2 && c.ny <= 2 && c.nz <= 2) {
        // Every child of c is a leaf: its record is complete now, without
        // a trip through the stack (the bulk of an octree's sets).
        const int cn = (c.nx > 1 ? 2 : 1) * (c.ny > 1 ? 2 : 1) * (c.nz > 1 ? 2 : 1);
        nodes_[next++] = {0, ord, uint32_t(dims.index(c.x, c.y, c.z)), uint8_t(cn),
                          uint8_t((1u << cn) - 1), extent_code(c)};
        count_at(f.depth + 2, uint32_t(cn));
      } else {
        sets[ns++] = {c, next++, ord, f.depth + 1};
      }
      ord += uint32_t(c.count());
    }
    // Reverse push so child 0 is expanded next: the whole of child 0's
    // subtree is numbered before child 1's, giving the DFS id layout.
    for (int i = ns; i-- > 0;) stack.push_back(sets[i]);
  }
}

SetTreeCache& SetTreeCache::shared() {
  static SetTreeCache cache(kSharedCapacityBytes);
  return cache;
}

SetTreeCache::Lease SetTreeCache::get(Dims dims) {
  const Key key{dims.x, dims.y, dims.z};
  std::promise<std::shared_ptr<const SetTree>> promise;
  {
    std::unique_lock lk(mu_);
    const auto [it, miss] = entries_.try_emplace(key);
    it->second.last_use = ++clock_;
    if (!miss) {
      const auto tree = it->second.tree;
      lk.unlock();
      return {tree.get(), 0.0};  // waits if another caller is building it
    }
    it->second.tree = promise.get_future().share();
    ++builds_;
  }

  const Timer timer;
  std::shared_ptr<const SetTree> tree;
  try {
    tree = std::make_shared<const SetTree>(dims);
  } catch (...) {
    promise.set_exception(std::current_exception());
    const std::lock_guard lk(mu_);
    entries_.erase(key);
    throw;
  }
  const double build_s = timer.seconds();
  promise.set_value(tree);

  const std::lock_guard lk(mu_);
  const auto it = entries_.find(key);  // entries are never evicted mid-build
  if (tree->bytes() > capacity_) {
    entries_.erase(it);
  } else {
    it->second.bytes = tree->bytes();
    retained_ += it->second.bytes;
    evict_to_fit();
  }
  return {std::move(tree), build_s};
}

void SetTreeCache::evict_to_fit() {
  while (retained_ > capacity_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it)
      if (it->second.bytes != 0 &&
          (victim == entries_.end() || it->second.last_use < victim->second.last_use))
        victim = it;
    retained_ -= victim->second.bytes;
    entries_.erase(victim);
  }
}

size_t SetTreeCache::retained_bytes() const {
  const std::lock_guard lk(mu_);
  return retained_;
}

size_t SetTreeCache::builds() const {
  const std::lock_guard lk(mu_);
  return builds_;
}

}  // namespace sperr::speck
