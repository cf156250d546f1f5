#include "src/structures/tree_utils.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace cordon::structures {

RootedTree::RootedTree(std::vector<std::uint32_t> parent_array)
    : parent(std::move(parent_array)) {
  const std::size_t n = parent.size();
  if (n >= kNoNode)
    throw std::invalid_argument("tree: more nodes than 32-bit ids hold");
  bool parents_first = true;  // every parent id below its child's
  for (std::uint32_t v = 0; v < n; ++v) {
    if (parent[v] == kNoNode) {
      if (root != kNoNode)
        throw std::invalid_argument("tree: two roots, nodes " +
                                    std::to_string(root) + " and " +
                                    std::to_string(v));
      root = v;
    } else if (parent[v] >= n) {
      throw std::invalid_argument("tree: parent " +
                                  std::to_string(parent[v]) + " of node " +
                                  std::to_string(v) + " out of range");
    } else if (parent[v] >= v) {
      parents_first = false;
    }
  }
  if (root == kNoNode) throw std::invalid_argument("tree: no root");
  // Every node must reach the root through its parents.  Walk up from
  // each node until a node whose depth is known; meeting a node of the
  // current walk again means the walk entered a cycle.  The walk then
  // hands out depths top-down.  Each node joins one walk, so this is
  // O(n) — and a single step per node when parents precede their
  // children, as generated trees have them.
  constexpr std::uint32_t kUnknown = kNoNode, kOnWalk = kNoNode - 1;
  depth.assign(n, kUnknown);
  depth[root] = 0;
  std::vector<std::uint32_t> walk;
  for (std::uint32_t v = 0; v < n; ++v) {
    std::uint32_t u = v;
    for (; depth[u] == kUnknown; u = parent[u]) {
      depth[u] = kOnWalk;
      walk.push_back(u);
    }
    if (depth[u] == kOnWalk)
      throw std::invalid_argument("tree: node " + std::to_string(u) +
                                  " lies on a parent cycle");
    for (std::uint32_t d = depth[u]; !walk.empty(); walk.pop_back())
      depth[walk.back()] = ++d;
    height = std::max(height, depth[v]);
  }
  children = core::build_csr(n, n, [&](std::size_t v) { return parent[v]; });
  // Subtree sizes: add each node to its parent after all of its children
  // were added to it.  Decreasing ids do that when parents precede their
  // children (the root is then node 0); otherwise decreasing depths do,
  // grouped by one counting sort.
  subtree_size.assign(n, 1);
  if (parents_first) {
    for (std::uint32_t v = static_cast<std::uint32_t>(n); v-- > 1;)
      subtree_size[parent[v]] += subtree_size[v];
    return;
  }
  const core::Csr by_depth = core::build_csr(
      std::size_t{height} + 1, n, [&](std::size_t v) { return depth[v]; });
  for (std::size_t k = n; k-- > 1;) {
    const std::uint32_t v = by_depth.items[k];
    subtree_size[parent[v]] += subtree_size[v];
  }
}

EulerTour build_euler_tour(const RootedTree& tree) {
  const std::size_t n = tree.size();
  EulerTour et;
  et.tin.assign(n, 0);
  et.tout.assign(n, 0);
  et.order.reserve(n);

  // Iterative preorder DFS; children pushed in reverse so they pop in
  // index order.
  std::vector<std::uint32_t> stack;
  stack.push_back(tree.root);
  while (!stack.empty()) {
    std::uint32_t v = stack.back();
    stack.pop_back();
    et.tin[v] = static_cast<std::uint32_t>(et.order.size());
    et.order.push_back(v);
    const auto ch = tree.children[v];
    for (std::size_t k = ch.size(); k > 0; --k) stack.push_back(ch[k - 1]);
  }
  // tout via a reverse pass: tout[v] = max over subtree of tin + 1.  In
  // preorder, a node's subtree occupies a contiguous block, so scanning
  // the order backwards and propagating to parents is enough.
  for (std::size_t t = n; t > 0; --t) {
    std::uint32_t v = et.order[t - 1];
    if (et.tout[v] < et.tin[v] + 1) et.tout[v] = et.tin[v] + 1;
    std::uint32_t p = tree.parent[v];
    if (p != kNoNode && et.tout[p] < et.tout[v]) et.tout[p] = et.tout[v];
  }
  return et;
}

}  // namespace cordon::structures
