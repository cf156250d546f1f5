#include "src/structures/hld.hpp"

namespace cordon::structures {

HeavyLightDecomposition::HeavyLightDecomposition(const RootedTree& tree) {
  const std::size_t n = tree.size();
  parent_ = tree.parent;
  head_.assign(n, kNoNode);
  pos_.assign(n, 0);
  order_.assign(n, 0);

  const std::vector<std::uint32_t>& size = tree.subtree_size;

  // Heavy child of each node: the child with the largest subtree.
  std::vector<std::uint32_t> heavy(n, kNoNode);
  for (std::uint32_t v = 0; v < n; ++v) {
    std::uint32_t best = kNoNode, best_size = 0;
    for (std::uint32_t c : tree.children[v]) {
      if (size[c] > best_size) {
        best = c;
        best_size = size[c];
      }
    }
    heavy[v] = best;
  }

  // Lay out chains: walk each chain head's heavy path, then recurse into
  // light children (iteratively via an explicit stack of chain heads).
  std::uint32_t next_pos = 0;
  std::vector<std::uint32_t> heads;
  heads.push_back(tree.root);
  while (!heads.empty()) {
    std::uint32_t h = heads.back();
    heads.pop_back();
    for (std::uint32_t v = h; v != kNoNode; v = heavy[v]) {
      head_[v] = h;
      pos_[v] = next_pos;
      order_[next_pos] = v;
      ++next_pos;
      for (std::uint32_t c : tree.children[v])
        if (c != heavy[v]) heads.push_back(c);
    }
  }
}

}  // namespace cordon::structures
