// Rooted-tree utilities shared by Tree-GLWS and the tree data structures:
// adjacency, depths and subtree sizes from a parent array, Euler tour.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/csr.hpp"

namespace cordon::structures {

inline constexpr std::uint32_t kNoNode = core::kNoRow;  // 0xffffffff

/// A rooted tree given by a parent array (parent[root] == kNoNode).
/// children[v] is a span of v's children in node-index order, stored as
/// one CSR over the whole tree.  depth[v] counts the edges from the root
/// to v; height is the largest depth (0 for a lone root); subtree_size[v]
/// counts the nodes of v's subtree, v included.
struct RootedTree {
  std::vector<std::uint32_t> parent;
  core::Csr children;
  std::vector<std::uint32_t> depth;
  std::vector<std::uint32_t> subtree_size;
  std::uint32_t height = 0;
  std::uint32_t root = kNoNode;

  /// Throws std::invalid_argument unless the array is one tree: every
  /// parent in range, exactly one root, and every node reaching it
  /// through its parents (so no cycles).  O(n).
  explicit RootedTree(std::vector<std::uint32_t> parent_array);

  [[nodiscard]] std::size_t size() const noexcept { return parent.size(); }
};

/// Preorder traversal data: entry/exit times (subtree of v = [tin[v],
/// tout[v])) and the preorder sequence itself.
struct EulerTour {
  std::vector<std::uint32_t> tin;
  std::vector<std::uint32_t> tout;
  std::vector<std::uint32_t> order;  // order[t] = node at preorder time t
};

[[nodiscard]] EulerTour build_euler_tour(const RootedTree& tree);

}  // namespace cordon::structures
