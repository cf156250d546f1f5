// Shared l-tree machinery: leaf levels from a combine forest, the O(n^2)
// DP oracle, and phase 2 (levels -> explicit alphabetic tree).
#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/oat/oat.hpp"

namespace cordon::oat {

void detail::check_weights(const std::vector<double>& weights) {
  double magnitude = 0;
  for (double w : weights) magnitude += std::abs(w);
  if (!std::isfinite(magnitude))
    throw std::invalid_argument(
        "oat: weights must be finite, with a finite sum of magnitudes");
}

void detail::set_levels(OatResult& res, const std::vector<double>& weights,
                        std::span<const Combine> combines) {
  const std::size_t n = weights.size();
  // A combine's node is made after its children, so a reverse pass
  // assigns depths top-down.
  std::vector<std::uint32_t> depth(n + combines.size(), 0);
  for (std::size_t k = combines.size(); k > 0; --k) {
    const std::uint32_t d = depth[n + k - 1] + 1;
    depth[combines[k - 1].left] = d;
    depth[combines[k - 1].right] = d;
  }
  depth.resize(n);
  res.levels = std::move(depth);
  res.cost = 0;
  res.height = 0;
  for (std::size_t i = 0; i < n; ++i) {
    res.cost += weights[i] * res.levels[i];
    res.height = std::max(res.height, res.levels[i]);
  }
}

double oat_dp_cost(const std::vector<double>& weights) {
  // D[i][j] = optimal cost of an alphabetic tree over leaves i..j-1
  // (0-based, half-open on j): D[i][i+1] = 0, and
  // D[i][j] = min_k D[i][k] + D[k][j] + W(i, j) — every merge pushes the
  // whole range one level deeper, hence the +W.  Knuth ranges apply.
  const std::size_t n = weights.size();
  if (n == 0) return 0;
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + weights[i];
  std::vector<double> d((n + 1) * (n + 1), 0.0);
  std::vector<std::uint32_t> rt((n + 1) * (n + 1), 0);
  auto at = [&](std::size_t i, std::size_t j) -> double& {
    return d[i * (n + 1) + j];
  };
  auto root = [&](std::size_t i, std::size_t j) -> std::uint32_t& {
    return rt[i * (n + 1) + j];
  };
  for (std::size_t i = 0; i + 1 <= n; ++i) root(i, i + 1) = static_cast<std::uint32_t>(i + 1);
  for (std::size_t len = 2; len <= n; ++len) {
    for (std::size_t i = 0; i + len <= n; ++i) {
      std::size_t j = i + len;
      double best = std::numeric_limits<double>::infinity();
      std::uint32_t best_k = 0;
      std::size_t klo = root(i, j - 1), khi = root(i + 1, j);
      if (klo < i + 1) klo = i + 1;
      if (khi > j - 1) khi = j - 1;
      for (std::size_t k = klo; k <= khi; ++k) {
        double v = at(i, k) + at(k, j);
        if (v < best) {
          best = v;
          best_k = static_cast<std::uint32_t>(k);
        }
      }
      at(i, j) = best + (prefix[j] - prefix[i]);
      root(i, j) = best_k;
    }
  }
  return at(0, n);
}

AlphabeticTree tree_from_levels(const std::vector<std::uint32_t>& levels) {
  // Stack reconstruction: push leaves left to right; whenever the two top
  // subtrees sit at the same level, merge them one level up.  A valid
  // level sequence (e.g. from Garsia–Wachs) collapses to a single level-0
  // tree.
  const std::size_t n = levels.size();
  AlphabeticTree t;
  if (n == 0) return t;
  if (n == 1) {
    if (levels[0] != 0)
      throw std::invalid_argument("single leaf must have level 0");
    return t;
  }
  struct Item {
    std::int32_t id;      // >= 0 leaf, < 0 internal (~id indexes t.left)
    std::uint32_t level;
  };
  std::vector<Item> stack;
  stack.reserve(64);
  auto merge_tops = [&] {
    while (stack.size() >= 2 &&
           stack[stack.size() - 1].level == stack[stack.size() - 2].level) {
      Item r = stack.back();
      stack.pop_back();
      Item l = stack.back();
      stack.pop_back();
      t.left.push_back(l.id);
      t.right.push_back(r.id);
      std::int32_t id = ~static_cast<std::int32_t>(t.left.size() - 1);
      if (l.level == 0)
        throw std::invalid_argument("level sequence merges above the root");
      stack.push_back({id, l.level - 1});
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    stack.push_back({static_cast<std::int32_t>(i), levels[i]});
    merge_tops();
  }
  if (stack.size() != 1 || stack.front().level != 0)
    throw std::invalid_argument("level sequence is not realizable");
  return t;
}

}  // namespace cordon::oat
