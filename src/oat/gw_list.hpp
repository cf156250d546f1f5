// Working list of sequential Garsia–Wachs (phase 1).
//
// Nodes live in one arena: ids [0, n) are the leaves, [n, 2n - 1) the
// combined nodes in combine order, and the two +inf sentinels come last.
// Two structures index the live nodes in list order:
//   * prev/next links, which GW's trigger scan walks;
//   * a treap with parent links whose nodes carry their subtree's max
//     weight, which turns the reinsertion scan into an O(log n) search.
// Treap priorities hash the node id, so the tree shape, and the work a
// search counts, repeat exactly from run to run.
//
// The two primitive steps of phase 1:
//   combine(x)          — replace adjacent (x, next(x)) by a parent node,
//   reinsert(z, from)   — insert z before the first node at/after `from`
//                         whose weight >= w(z) (GW's reinsertion rule).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/oat/oat.hpp"
#include "src/parallel/random.hpp"

namespace cordon::oat::detail {

class GwList {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Requires at least two weights.
  explicit GwList(const std::vector<double>& weights)
      : n_(static_cast<std::uint32_t>(weights.size())),
        head_(2 * n_ - 1),
        tail_(2 * n_),
        size_(n_) {
    const std::size_t total = 2 * std::size_t{n_} + 1;
    w_.assign(total, std::numeric_limits<double>::infinity());
    std::copy(weights.begin(), weights.end(), w_.begin());
    max_ = w_;
    prev_.assign(total, kNone);
    next_.assign(total, kNone);
    left_.assign(total, kNone);
    right_.assign(total, kNone);
    up_.assign(total, kNone);
    combines_.reserve(n_ - 1);
    // Link: head -> 0 -> 1 -> ... -> n-1 -> tail.
    std::uint32_t before = head_;
    for (std::uint32_t v = 0; v <= n_; ++v) {
      const std::uint32_t cur = v == n_ ? tail_ : v;
      next_[before] = cur;
      prev_[cur] = before;
      before = cur;
    }
    // The treap is the Cartesian tree of the priorities over list order,
    // built with a stack; a node leaves the stack only once both of its
    // subtrees are final, so its max is pulled then.
    std::vector<std::uint32_t> spine;
    for (std::uint32_t v = head_; v != kNone; v = next_[v]) {
      std::uint32_t last = kNone;
      while (!spine.empty() && priority(spine.back()) < priority(v)) {
        last = spine.back();
        spine.pop_back();
        pull(last);
      }
      left_[v] = last;
      if (last != kNone) up_[last] = v;
      if (!spine.empty()) {
        right_[spine.back()] = v;
        up_[v] = spine.back();
      }
      spine.push_back(v);
    }
    for (; !spine.empty(); spine.pop_back()) pull(spine.back());
  }

  [[nodiscard]] std::uint32_t first() const noexcept { return next_[head_]; }
  [[nodiscard]] std::uint32_t next(std::uint32_t v) const { return next_[v]; }
  [[nodiscard]] std::uint32_t prev(std::uint32_t v) const { return prev_[v]; }
  [[nodiscard]] double weight(std::uint32_t v) const { return w_[v]; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool is_sentinel(std::uint32_t v) const {
    return v == head_ || v == tail_;
  }
  /// The combines made so far, in order.
  [[nodiscard]] std::span<const Combine> combines() const noexcept {
    return combines_;
  }

  /// Combines adjacent nodes (x, next(x)) into a new node (not linked
  /// into the list); unlinks both and drops them from the treap.
  /// Returns the new node id.
  std::uint32_t combine(std::uint32_t x) {
    const std::uint32_t y = next_[x];
    const std::uint32_t z =
        n_ + static_cast<std::uint32_t>(combines_.size());
    w_[z] = max_[z] = w_[x] + w_[y];
    combines_.push_back({x, y});
    next_[prev_[x]] = next_[y];
    prev_[next_[y]] = prev_[x];
    erase(x);
    erase(y);
    --size_;  // two removed, one pending insert
    return z;
  }

  /// GW reinsertion: inserts z before the first node at or after `from`
  /// with weight >= w(z) (the tail sentinel always qualifies).  Returns
  /// the number of treap nodes the search visited (work accounting).
  std::size_t reinsert(std::uint32_t z, std::uint32_t from) {
    std::size_t visited = 0;
    const std::uint32_t q = first_at_least(from, w_[z], visited);
    const std::uint32_t before = prev_[q];
    next_[before] = z;
    prev_[z] = before;
    next_[z] = q;
    prev_[q] = z;
    // In list order z sits between `before` and q: it becomes q's left
    // child, or else the right child of `before` (the last node of q's
    // left subtree), then rotates up to its priority's place.
    if (left_[q] == kNone) {
      left_[q] = z;
      up_[z] = q;
    } else {
      right_[before] = z;
      up_[z] = before;
    }
    while (up_[z] != kNone && priority(up_[z]) < priority(z)) rotate_up(z);
    for (std::uint32_t u = up_[z]; u != kNone && max_[u] < w_[z]; u = up_[u])
      max_[u] = w_[z];
    return visited;
  }

 private:
  static std::uint64_t priority(std::uint32_t v) noexcept {
    return parallel::hash64(v);  // a bijection: no two nodes tie
  }

  void pull(std::uint32_t v) {
    double m = w_[v];
    if (left_[v] != kNone) m = std::max(m, max_[left_[v]]);
    if (right_[v] != kNone) m = std::max(m, max_[right_[v]]);
    max_[v] = m;
  }

  // Rotates c above its parent; list order is unchanged.
  void rotate_up(std::uint32_t c) {
    const std::uint32_t p = up_[c], g = up_[p];
    if (left_[p] == c) {
      left_[p] = right_[c];
      if (right_[c] != kNone) up_[right_[c]] = p;
      right_[c] = p;
    } else {
      right_[p] = left_[c];
      if (left_[c] != kNone) up_[left_[c]] = p;
      left_[c] = p;
    }
    up_[p] = c;
    up_[c] = g;
    if (g != kNone) (left_[g] == p ? left_[g] : right_[g]) = c;
    pull(p);
    pull(c);
  }

  // Rotates x below its higher-priority child until it is a leaf, then
  // cuts it off.  x is never the root: the sentinels outlive it.
  void erase(std::uint32_t x) {
    while (left_[x] != kNone || right_[x] != kNone) {
      const std::uint32_t l = left_[x], r = right_[x];
      rotate_up(r == kNone || (l != kNone && priority(l) > priority(r)) ? l
                                                                        : r);
    }
    const std::uint32_t p = up_[x];
    (left_[p] == x ? left_[p] : right_[p]) = kNone;
    up_[x] = kNone;
    // Re-pull the path to the root; above the first unchanged max,
    // nothing changes.
    for (std::uint32_t u = p; u != kNone; u = up_[u]) {
      const double before = max_[u];
      pull(u);
      if (max_[u] == before) break;
    }
  }

  // First node at or after `from` in list order with weight >= w: from
  // itself, else the leftmost qualifying node of its right subtree, else
  // of the first ancestor entered from its left subtree (that ancestor,
  // then its right subtree).  Adds every node it reads to `visited`.
  std::uint32_t first_at_least(std::uint32_t from, double w,
                               std::size_t& visited) const {
    ++visited;
    if (w_[from] >= w) return from;
    std::uint32_t v = from, sub = right_[from];
    while (sub == kNone || max_[sub] < w) {
      const std::uint32_t p = up_[v];  // exists: the tail qualifies
      ++visited;
      if (left_[p] == v) {
        if (w_[p] >= w) return p;
        sub = right_[p];
      } else {
        sub = kNone;
      }
      v = p;
    }
    for (;;) {
      ++visited;
      const std::uint32_t l = left_[sub];
      if (l != kNone && max_[l] >= w) {
        sub = l;
      } else if (w_[sub] >= w) {
        return sub;
      } else {
        sub = right_[sub];
      }
    }
  }

  std::uint32_t n_, head_, tail_;
  std::size_t size_;
  std::vector<double> w_, max_;  // weight, and max weight in the subtree
  std::vector<std::uint32_t> prev_, next_;   // list links
  std::vector<std::uint32_t> left_, right_, up_;  // treap links
  std::vector<Combine> combines_;
};

}  // namespace cordon::oat::detail
