#include <limits>
#include <span>

#include "src/core/cancel.hpp"
#include "src/core/telemetry.hpp"
#include "src/parallel/scheduler.hpp"
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

// One DFS's mutable state.  The path's best-decision array holds sorted
// triples over depths, exactly the 1D structure, but with journaled
// mutation for backtracking.  A forked branch starts from a copy of its
// parent's array and empty stacks, and leaves the array as it found it.
struct Branch {
  struct Frame {
    std::uint32_t v;
    bool entering;
  };
  std::vector<DecisionInterval> decisions;
  std::vector<DecisionInterval> popped;  // shared by every open node
  std::vector<Undo> open;                // one record per open node
  std::vector<Frame> stack;
  core::DpStats stats;
  bool forked = false;  // ran children in parallel at some node
  core::PollTicker poll;
};

// The journaled DFS: every node reads its root path's decisions, so the
// answers and the work counts do not depend on which branch visits it.
// With subtree sizes it forks at heavy subtrees (fork_at); without, it is
// the plain sequential traversal.
template <typename Cost>
class JournaledDfs {
 public:
  JournaledDfs(const RootedTree& t, const Cost& w, const glws::EFn& e,
               std::span<const std::uint32_t> sizes, TreeGlwsResult& res)
      : t_(t), w_(w), e_(e), sizes_(sizes), res_(res), ev_(t.size(), 0.0) {
    ev_[t.root] = e_(res_.d[t.root], t.root);
  }

  // Visits start's subtree on b's array, with start's ancestors inserted.
  void walk(Branch& b, std::uint32_t start) {
    const std::vector<std::uint32_t>& depth = t_.depth;
    const std::size_t base = b.stack.size();
    b.stack.push_back({start, true});
    while (b.stack.size() > base) {
      b.poll.tick();
      auto [v, entering] = b.stack.back();
      b.stack.pop_back();
      if (!entering) {
        undo(b, b.open.back());
        b.open.pop_back();
        continue;
      }
      if (v != t_.root) {
        std::uint32_t u = best_of(b, depth[v]);
        res_.best[v] = u;
        res_.d[v] = ev_[u] + w_(depth[u], depth[v]);
        ev_[v] = e_(res_.d[v], v);
      }
      ++b.stats.states;
      insert_candidate(
          b, v, b.open.emplace_back(Undo{.popped_begin = b.popped.size()}));
      if (!sizes_.empty() && sizes_[v] >= 2 * kForkGrain && fork_at(b, v))
        continue;
      b.stack.push_back({v, false});
      for (std::uint32_t c : t_.children[v]) b.stack.push_back({c, true});
    }
  }

 private:
  struct Fork {
    std::uint32_t child;
    Branch branch;
  };

  std::uint32_t best_of(const Branch& b, std::size_t dep) const {
    const std::vector<DecisionInterval>& decisions = b.decisions;
    std::size_t lo = 0, hi = decisions.size() - 1;
    while (lo < hi) {
      std::size_t mid = lo + (hi - lo) / 2;
      if (decisions[mid].r < dep)
        lo = mid + 1;
      else
        hi = mid;
    }
    return static_cast<std::uint32_t>(decisions[lo].j);
  }

  double eval(Branch& b, std::uint32_t u, std::size_t dep) const {
    ++b.stats.relaxations;
    return ev_[u] + w_(t_.depth[u], dep);
  }

  // Convex insert of candidate u (valid for depths > depth[u]) with undo
  // information.  Decision intervals end at the deepest node: no query
  // goes past it.
  void insert_candidate(Branch& b, std::uint32_t u, Undo& je) const {
    std::vector<DecisionInterval>& decisions = b.decisions;
    const std::size_t max_depth = t_.height;
    std::size_t lo = t_.depth[u] + 1;
    if (lo > max_depth) return;
    if (decisions.empty()) {
      decisions.push_back({lo, max_depth, u});
      je.pushed = true;
      return;
    }
    while (!decisions.empty()) {
      DecisionInterval& back = decisions.back();
      std::size_t start = std::max(back.l, lo);
      if (start > back.r) break;
      std::uint32_t bj = static_cast<std::uint32_t>(back.j);
      if (eval(b, u, start) < eval(b, bj, start)) {
        if (start == back.l) {
          b.popped.push_back(back);
          decisions.pop_back();
          continue;
        }
        je.trimmed = true;
        je.old_r = back.r;
        back.r = start - 1;
        decisions.push_back({start, max_depth, u});
        je.pushed = true;
        return;
      }
      if (eval(b, u, back.r) >= eval(b, bj, back.r)) {
        // u loses throughout back.  If pops happened, u's win suffix
        // starts exactly where the first popped interval did — re-cover
        // it.
        if (b.popped.size() > je.popped_begin) {
          decisions.push_back({back.r + 1, max_depth, u});
          je.pushed = true;
        }
        return;
      }
      std::size_t a = start, c = back.r;  // lose at a, win at c
      while (a + 1 < c) {
        std::size_t mid = a + (c - a) / 2;
        if (eval(b, u, mid) < eval(b, bj, mid))
          c = mid;
        else
          a = mid;
      }
      je.trimmed = true;
      je.old_r = back.r;
      back.r = c - 1;
      decisions.push_back({c, max_depth, u});
      je.pushed = true;
      return;
    }
    decisions.push_back({lo, max_depth, u});
    je.pushed = true;
  }

  static void undo(Branch& b, const Undo& je) {
    if (je.pushed) b.decisions.pop_back();
    if (je.trimmed) b.decisions.back().r = je.old_r;
    while (b.popped.size() > je.popped_begin) {
      b.decisions.push_back(b.popped.back());
      b.popped.pop_back();
    }
  }

  // v is entered and inserted.  When two or more of its children hold
  // kForkGrain nodes or more, visits all of v's children, undoes v's
  // insert and returns true; otherwise does nothing and returns false.
  // The light children run inline first.  Then the heaviest child goes on
  // with b's array while every other heavy child runs in parallel on a
  // copy.  A copy holds at most `height` intervals, and a child gets one
  // only when its subtree holds at least as many nodes, so copying never
  // costs more than the subtree's own work.
  bool fork_at(Branch& b, std::uint32_t v) {
    const auto kids = t_.children[v];
    std::uint32_t heaviest = structures::kNoNode;
    std::size_t heavy = 0;
    for (std::uint32_t c : kids) {
      if (sizes_[c] < kForkGrain) continue;
      ++heavy;
      if (heaviest == structures::kNoNode || sizes_[c] > sizes_[heaviest])
        heaviest = c;
    }
    if (heavy < 2) return false;
    auto copied = [&](std::uint32_t c) {
      return c != heaviest && sizes_[c] >= kForkGrain &&
             sizes_[c] >= b.decisions.size();
    };
    for (std::uint32_t c : kids)
      if (c != heaviest && !copied(c)) walk(b, c);
    std::vector<Fork> forks;
    for (std::uint32_t c : kids) {
      if (!copied(c)) continue;
      forks.push_back({c, Branch{}});
      forks.back().branch.decisions = b.decisions;
    }
    if (forks.empty()) {
      walk(b, heaviest);
    } else {
      parallel::par_do([&] { walk(b, heaviest); }, [&] {
        parallel::parallel_for(
            0, forks.size(),
            [&](std::size_t i) { walk(forks[i].branch, forks[i].child); }, 1);
      });
      b.forked = true;
      for (const Fork& f : forks) b.stats += f.branch.stats;
      // Polls inside the branches were no-ops (core::ThrowGate).
      core::poll_cancel();
    }
    undo(b, b.open.back());
    b.open.pop_back();
    return true;
  }

  const RootedTree& t_;
  const Cost& w_;
  const glws::EFn& e_;
  std::span<const std::uint32_t> sizes_;  // empty: never fork
  TreeGlwsResult& res_;
  std::vector<double> ev_;  // E[v] = e(D[v], v)
};

template <typename Cost>
TreeGlwsResult journaled_dfs(const RootedTree& t, double d0, const Cost& w,
                             const glws::EFn& e,
                             std::span<const std::uint32_t> sizes) {
  const std::size_t n = t.size();
  TreeGlwsResult res;
  res.d.assign(n, std::numeric_limits<double>::infinity());
  res.best.assign(n, t.root);
  res.d[t.root] = d0;
  JournaledDfs<Cost> dfs(t, w, e, sizes, res);
  Branch main;
  dfs.walk(main, t.root);
  res.stats = main.stats;
  // Every other branch is forked from main, so main forked first.
  res.path = main.forked ? core::SolvePath::kParallel
                         : core::SolvePath::kSequentialCutoff;
  return res;
}

}  // namespace

TreeGlwsResult tree_glws_sequential(const RootedTree& t, double d0,
                                    const glws::CostFn& w,
                                    const glws::EFn& e) {
  return glws::with_cost(
      w, [&](const auto& cost) { return journaled_dfs(t, d0, cost, e, {}); });
}

TreeGlwsResult tree_glws_auto(const RootedTree& t, double d0,
                              const glws::CostFn& w, const glws::EFn& e) {
  std::span<const std::uint32_t> sizes;
  if (parallel::effective_parallelism() > 1) sizes = t.subtree_size;
  TreeGlwsResult r = glws::with_cost(w, [&](const auto& cost) {
    return journaled_dfs(t, d0, cost, e, sizes);
  });
  if (r.path == core::SolvePath::kSequentialCutoff)
    telemetry::count(telemetry::Counter::kSolverSeqCutoffs);
  return r;
}

}  // namespace cordon::treeglws
