#include "speck/settree.h"

namespace sperr::speck {

void SetTree::build(Dims dims) {
  nodes_.clear();

  const size_t n = dims.total();
  leaves_ = uint32_t(n);
  // Leaves = n; internal nodes are ~n/7 for octree bulk, up to n-1 in the
  // all-binary-splits worst case (thin 1-D grids). Reserve for the typical
  // shape and let the vector grow for pathological ones.
  nodes_.reserve(n + n / 4 + 16);

  struct Frame {
    Box box;
    uint32_t id;
  };
  std::vector<Frame> stack;
  stack.reserve(64 * 8);

  Box root;
  root.nx = uint32_t(dims.x);
  root.ny = uint32_t(dims.y);
  root.nz = uint32_t(dims.z);
  nodes_.push_back({0, 0, 0});
  if (root.is_single()) {
    nodes_[0] = {uint32_t(dims.index(root.x, root.y, root.z)), 0, 0};
    return;
  }
  stack.push_back({root, 0});

  // Leaf children are finalized inline at parent expansion — only internal
  // children round-trip through the stack. Leaves are the bulk of the tree
  // (7/8 of an octree), so this cuts stack traffic ~8x; and since each
  // child's record is push_back'd individually, there is no bulk
  // resize/zero-fill of records that are about to be overwritten anyway.
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    Box children[8];
    const int nc = split_box(f.box, children);
    const uint32_t base = uint32_t(nodes_.size());
    nodes_[f.id].first = base;
    nodes_[f.id].nchild = uint16_t(nc);
    for (int i = 0; i < nc; ++i) {
      if (children[i].is_single())
        nodes_.push_back(
            {uint32_t(dims.index(children[i].x, children[i].y, children[i].z)),
             0, 0});
      else
        nodes_.push_back({0, 0, 0});  // structure filled at its expansion
    }
    // Reverse push so child 0 is expanded next: the whole of child 0's
    // subtree is allocated before child 1's, giving the DFS id layout.
    for (int i = nc; i-- > 0;)
      if (!children[i].is_single()) stack.push_back({children[i], base + uint32_t(i)});
  }
}

}  // namespace sperr::speck
