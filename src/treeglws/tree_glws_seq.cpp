#include <cassert>
#include <limits>

#include "src/core/cancel.hpp"
#include "src/structures/monotonic_queue.hpp"  // DecisionInterval
#include "src/treeglws/tree_glws.hpp"

namespace cordon::treeglws {

using structures::DecisionInterval;
using structures::RootedTree;

TreeGlwsResult tree_glws_naive(const RootedTree& t, double d0,
                               const glws::CostFn& w, const glws::EFn& e) {
  const std::size_t n = t.size();
  TreeGlwsResult res;
  res.d.assign(n, std::numeric_limits<double>::infinity());
  res.best.assign(n, t.root);
  std::vector<double> ev(n, 0.0);
  const std::vector<std::uint32_t>& depth = t.depth;
  res.d[t.root] = d0;
  ev[t.root] = e(d0, t.root);

  // Preorder DFS; each node scans its whole ancestor chain.
  std::vector<std::uint32_t> stack{t.root};
  while (!stack.empty()) {
    std::uint32_t v = stack.back();
    stack.pop_back();
    if (v != t.root) {
      double best = std::numeric_limits<double>::infinity();
      std::uint32_t best_u = t.parent[v];
      for (std::uint32_t u = t.parent[v];; u = t.parent[u]) {
        ++res.stats.relaxations;
        double cand = ev[u] + w(depth[u], depth[v]);
        if (cand < best) {
          best = cand;
          best_u = u;
        }
        if (u == t.root) break;
      }
      res.d[v] = best;
      res.best[v] = best_u;
      ev[v] = e(best, v);
    }
    ++res.stats.states;
    for (std::uint32_t c : t.children[v]) stack.push_back(c);
  }
  return res;
}

namespace {

// Undo record of one open DFS node's convex insert: what restores the
// decision array when the DFS leaves the node.  The intervals the insert
// popped sit on one stack shared by all open nodes, from popped_begin up;
// DFS exits are LIFO, so each node's pops are on top when it leaves.
struct Undo {
  std::size_t popped_begin = 0;
  bool trimmed = false;  // was the new back's r reduced?
  std::size_t old_r = 0;
  bool pushed = false;   // was a new interval appended?
};

template <typename Cost>
TreeGlwsResult sequential_body(const RootedTree& t, double d0, const Cost& w,
                               const glws::EFn& e) {
  const std::size_t n = t.size();
  TreeGlwsResult res;
  res.d.assign(n, std::numeric_limits<double>::infinity());
  res.best.assign(n, t.root);
  std::vector<double> ev(n, 0.0);
  const std::vector<std::uint32_t>& depth = t.depth;
  res.d[t.root] = d0;
  ev[t.root] = e(d0, t.root);

  core::DpStats stats;
  // Decision intervals end at the deepest node: no query goes past it.
  const std::size_t max_depth = t.height;
  auto eval = [&](std::uint32_t u, std::size_t dep) {
    ++stats.relaxations;
    return ev[u] + w(depth[u], dep);
  };

  // The path's best-decision array: sorted triples over depths, exactly
  // the 1D structure, but with journaled mutation for backtracking.
  std::vector<DecisionInterval> decisions;
  auto best_of = [&](std::size_t dep) {
    std::size_t lo = 0, hi = decisions.size() - 1;
    while (lo < hi) {
      std::size_t mid = lo + (hi - lo) / 2;
      if (decisions[mid].r < dep)
        lo = mid + 1;
      else
        hi = mid;
    }
    return decisions[lo].j;
  };

  // Convex insert of candidate u (valid for depths > depth[u]) with undo
  // information.
  std::vector<DecisionInterval> popped;  // shared by every open node
  auto insert_candidate = [&](std::uint32_t u, Undo& je) {
    std::size_t lo = depth[u] + 1;
    if (lo > max_depth) return;
    if (decisions.empty()) {
      decisions.push_back({lo, max_depth, u});
      je.pushed = true;
      return;
    }
    while (!decisions.empty()) {
      DecisionInterval& b = decisions.back();
      std::size_t start = std::max(b.l, lo);
      if (start > b.r) break;
      std::uint32_t bj = static_cast<std::uint32_t>(b.j);
      if (eval(u, start) < eval(bj, start)) {
        if (start == b.l) {
          popped.push_back(b);
          decisions.pop_back();
          continue;
        }
        je.trimmed = true;
        je.old_r = b.r;
        b.r = start - 1;
        decisions.push_back({start, max_depth, u});
        je.pushed = true;
        return;
      }
      if (eval(u, b.r) >= eval(bj, b.r)) {
        // u loses throughout b.  If pops happened, u's win suffix starts
        // exactly where the first popped interval did — re-cover it.
        if (popped.size() > je.popped_begin) {
          decisions.push_back({b.r + 1, max_depth, u});
          je.pushed = true;
        }
        return;
      }
      std::size_t a = start, c = b.r;  // lose at a, win at c
      while (a + 1 < c) {
        std::size_t mid = a + (c - a) / 2;
        if (eval(u, mid) < eval(bj, mid))
          c = mid;
        else
          a = mid;
      }
      je.trimmed = true;
      je.old_r = b.r;
      b.r = c - 1;
      decisions.push_back({c, max_depth, u});
      je.pushed = true;
      return;
    }
    decisions.push_back({lo, max_depth, u});
    je.pushed = true;
  };

  auto undo = [&](const Undo& je) {
    if (je.pushed) decisions.pop_back();
    if (je.trimmed) decisions.back().r = je.old_r;
    while (popped.size() > je.popped_begin) {
      decisions.push_back(popped.back());
      popped.pop_back();
    }
  };

  // Explicit DFS with enter/exit events; one undo record per open node.
  struct Frame {
    std::uint32_t v;
    bool entering;
  };
  std::vector<Frame> stack{{t.root, true}};
  std::vector<Undo> open;
  core::PollTicker poll;
  while (!stack.empty()) {
    poll.tick();
    auto [v, entering] = stack.back();
    stack.pop_back();
    if (!entering) {
      undo(open.back());
      open.pop_back();
      continue;
    }
    if (v != t.root) {
      std::uint32_t u = best_of(depth[v]);
      res.best[v] = u;
      res.d[v] = ev[u] + w(depth[u], depth[v]);
      ev[v] = e(res.d[v], v);
    }
    ++stats.states;
    insert_candidate(v,
                     open.emplace_back(Undo{.popped_begin = popped.size()}));
    stack.push_back({v, false});
    for (std::uint32_t c : t.children[v]) stack.push_back({c, true});
  }
  res.stats = stats;
  return res;
}

}  // namespace

TreeGlwsResult tree_glws_sequential(const RootedTree& t, double d0,
                                    const glws::CostFn& w,
                                    const glws::EFn& e) {
  return glws::with_cost(
      w, [&](const auto& cost) { return sequential_body(t, d0, cost, e); });
}

}  // namespace cordon::treeglws
