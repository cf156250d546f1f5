// GAP edit distance (Sec. 5.2, Thm 5.2): align strings A[1..n], B[1..m]
// where deleting a whole substring costs w1 (in A) / w2 (in B):
//   P[i][j] = min_{i'<i} D[i'][j] + w1(i', i)     (gap in A, column GLWS)
//   Q[i][j] = min_{j'<j} D[i][j'] + w2(j', j)     (gap in B, row GLWS)
//   D[i][j] = min{ P[i][j], Q[i][j], D[i-1][j-1] if A[i]==B[j] }.
//
//   * gap_naive    — direct evaluation: O(n^2 m + n m^2) (oracle),
//   * gap_seq      — Γgap: every row of Q and column of P is a 1D GLWS,
//     solved with monotonic queues in row-major order: O(nm log nm),
//   * gap_parallel — the Cordon Algorithm on the 2D grid: the frontier is
//     a staircase; synchronized prefix-doubling across rows probes it,
//     sentinels come from (a) row-wise first_win, (b) column-wise
//     first_win, (c) diagonal edges whose source is unfinalized; a
//     prefix-min over rows turns sentinels into the staircase cordon.
//     Row/column best-decision lists are rebuilt per round with the
//     shared FindIntervals + envelope merge (convex needs the merge too:
//     a state can be past the cordon for column reasons while its best
//     row decision is old).  Work O(nm log n), span O(k log^2 n) rounds
//     where k is the effective depth of Γgap's DAG (Thm 5.2).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/dp_stats.hpp"
#include "src/glws/glws.hpp"  // CostFn, Shape, SpanCost

namespace cordon::gap {

struct GapResult {
  std::vector<double> d;  // (n+1) x (m+1), row-major
  std::size_t rows = 0, cols = 0;
  double distance = 0;  // D[n][m]
  core::DpStats stats;
  core::SolvePath path = core::SolvePath::kParallel;  // set by gap_auto

  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    return d[i * cols + j];
  }
};

/// Direct evaluation of the recurrence (oracle).
[[nodiscard]] GapResult gap_naive(const std::vector<std::uint32_t>& a,
                                  const std::vector<std::uint32_t>& b,
                                  const glws::CostFn& w1,
                                  const glws::CostFn& w2);

/// Γgap — sequential row-major with per-row / per-column monotonic
/// queues.  `shape` applies to both w1 and w2 (the common case; the
/// paper's evaluation uses convex costs).
[[nodiscard]] GapResult gap_seq(const std::vector<std::uint32_t>& a,
                                const std::vector<std::uint32_t>& b,
                                const glws::CostFn& w1,
                                const glws::CostFn& w2, glws::Shape shape);

/// Cordon Algorithm on the grid (Thm 5.2).  stats.rounds counts the
/// staircase cordon rounds.
[[nodiscard]] GapResult gap_parallel(const std::vector<std::uint32_t>& a,
                                     const std::vector<std::uint32_t>& b,
                                     const glws::CostFn& w1,
                                     const glws::CostFn& w2,
                                     glws::Shape shape);

/// Production entry point: gap_seq when effective parallelism is below
/// core::kGapMinWorkers or the grid (n+1)*(m+1) is under
/// core::kGapSeqCutoff, gap_parallel otherwise.  The routing decision is
/// recorded in GapResult::path.
[[nodiscard]] GapResult gap_auto(const std::vector<std::uint32_t>& a,
                                 const std::vector<std::uint32_t>& b,
                                 const glws::CostFn& w1,
                                 const glws::CostFn& w2, glws::Shape shape);

/// Affine gap cost builder: open + extend * length, convex Monge.
[[nodiscard]] inline glws::SpanCost affine_gap_cost(double open,
                                                    double extend) {
  return {glws::SpanCost::Kind::kLinear, open, extend};
}

/// Strictly convex gap cost: open + scale * length^2; used to exercise
/// non-linear costs in tests.
[[nodiscard]] inline glws::SpanCost quadratic_gap_cost(double open,
                                                       double scale) {
  return {glws::SpanCost::Kind::kQuadratic, open, scale};
}

/// Concave gap cost: logarithmic growth (classic in bioinformatics).
[[nodiscard]] inline glws::SpanCost log_gap_cost(double open, double scale) {
  return {glws::SpanCost::Kind::kLog1p, open, scale};
}

}  // namespace cordon::gap
