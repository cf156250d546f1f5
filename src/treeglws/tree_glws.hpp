// Tree-GLWS (Sec. 5.3, Thm 5.3): GLWS along every root-to-node path.
//
// Given a rooted tree T, boundary D[root] = d0, and a convex cost on
// depths, compute for every node v:
//   D[v] = min over proper ancestors u of  E[u] + w(depth(u), depth(v)),
// with E[u] = f(D[u], u).  Sibling nodes share D (same ancestor set) but
// may differ in E.
//
//   * tree_glws_naive      — O(n * depth) ancestor scan (oracle),
//   * tree_glws_sequential — DFS with a *journaled* best-decision array:
//     convex inserts are undone on backtrack, queries are binary
//     searches, so one array serves every path (the inherently
//     sequential baseline the paper describes),
//   * tree_glws_auto       — the production solve: the same journaled
//     DFS, forked at heavy subtrees.  Sibling subtrees are independent
//     once each has its path's decisions, so at a node with two or more
//     children of at least kForkGrain nodes each, the heaviest child
//     goes on with the caller's array and every other such child runs
//     in parallel on a copy of it.  Every node still reads exactly its root
//     path's decisions, so D, best, states and relaxations equal
//     tree_glws_sequential's bit for bit at every pool size,
//   * tree_glws_parallel   — the Cordon Algorithm on trees: rounds of
//     depth-windowed prefix-doubling (subtree + depth-range extraction
//     via a 2D range report), sentinels located with find-first searches
//     against the path envelope, per-path blocking resolved with
//     HLD + segment-tree path minima, and per-node best-decision lists
//     maintained as *persistent treaps* so sibling branches share their
//     common path prefix (the O(n^2) -> O~(n) space/work reduction of
//     Sec. 5.3.2).  No production route runs it: it is the paper's
//     algorithm, kept as the reference the tests and benches time and
//     check (docs/ARCHITECTURE.md, "Substitutions").
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/dp_stats.hpp"
#include "src/glws/glws.hpp"  // CostFn, EFn
#include "src/structures/tree_utils.hpp"

namespace cordon::treeglws {

/// The smallest subtree worth a branch of its own: tree_glws_auto forks
/// at a node with two or more children whose subtrees hold at least this
/// many nodes.  Of 1024, 4096, 16384 and 32768, 4096 was fastest at
/// n = 2^20 on 4 cores; at n = 20000 the forked DFS ran 0.98-1.10x as
/// fast as the plain one on random trees and 1.6-1.8x on binary ones.
inline constexpr std::uint32_t kForkGrain = 4096;

struct TreeGlwsResult {
  std::vector<double> d;             // D[v]
  std::vector<std::uint32_t> best;   // best ancestor of v (node id)
  core::DpStats stats;
  // The journaled DFS sets kParallel when it forked and kSequentialCutoff
  // otherwise; tree_glws_parallel leaves the default.
  core::SolvePath path = core::SolvePath::kParallel;
};

/// O(sum of depths) oracle: scans all ancestors of every node.
[[nodiscard]] TreeGlwsResult tree_glws_naive(const structures::RootedTree& t,
                                             double d0, const glws::CostFn& w,
                                             const glws::EFn& e);

/// Sequential DFS with journaled decision intervals (convex costs).
[[nodiscard]] TreeGlwsResult tree_glws_sequential(
    const structures::RootedTree& t, double d0, const glws::CostFn& w,
    const glws::EFn& e);

/// Parallel Cordon rounds with persistent envelopes (convex costs).
/// stats.rounds counts phase-parallel rounds.
[[nodiscard]] TreeGlwsResult tree_glws_parallel(const structures::RootedTree& t,
                                                double d0,
                                                const glws::CostFn& w,
                                                const glws::EFn& e);

/// Production entry point: the journaled DFS, forked at heavy subtrees
/// unless effective parallelism is 1.  TreeGlwsResult::path is kParallel
/// when at least one fork ran; otherwise it is kSequentialCutoff (a
/// path, a star, any tree under 2 * kForkGrain nodes) and
/// kSolverSeqCutoffs is bumped.
[[nodiscard]] TreeGlwsResult tree_glws_auto(const structures::RootedTree& t,
                                            double d0, const glws::CostFn& w,
                                            const glws::EFn& e);

}  // namespace cordon::treeglws
