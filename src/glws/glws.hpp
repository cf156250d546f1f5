// Generalized Least Weight Subsequence (Sec. 4):
//   D[i] = min_{0 <= j < i} { E[j] + w(j, i) },  E[j] = f(D[j], j).
//
// Algorithms:
//   * glws_naive      — O(n^2) evaluation of the recurrence (oracle),
//   * glws_sequential — Γlws: the classic O(n log n) monotonic-queue
//     algorithm [44] for convex or concave costs (the algorithm that the
//     parallel version faithfully parallelizes),
//   * glws_parallel   — the Cordon Algorithm, Alg. 1 (+ Alg. 2 for the
//     concave merge): O(n log n) work, O(k log^2 n) span, where k is the
//     number of phase-parallel rounds (= effective depth; for convex
//     costs the *perfect* depth, e.g. the number of post offices in the
//     optimal solution).  Thm 4.1 / 4.2.
//
// Cost functions are type-erased (std::function) in the public API, but
// a call through CostFn costs about as much as the rest of a relaxation:
// a 4-worker solve of a quadratic-cost instance with n = 2^20 (routed to
// glws_sequential) took a median 0.22 s calling through it and 0.12 s
// calling the same SpanCost inline (10 runs each, 4-vCPU x86-64 host,
// Release).  So the sequential solve bodies are templates over the cost,
// entered through with_cost: a CostFn holding a SpanCost runs the inline
// instantiation, any other CostFn the type-erased one.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/dp_stats.hpp"

namespace cordon::glws {

enum class Shape { kConvex, kConcave };

/// w(j, i): cost of a transition j -> i, defined for 0 <= j < i <= n.
using CostFn = std::function<double(std::size_t, std::size_t)>;

/// w(j, i) = open + scale * g(i - j), with g linear, quadratic or log1p:
/// the closed cost family instances serialize (engine::CostSpec builds
/// one) and gap's cost builders return.  Convex Monge for kLinear and
/// kQuadratic, concave for kLog1p, given scale >= 0.
struct SpanCost {
  enum class Kind { kLinear, kQuadratic, kLog1p };

  Kind kind = Kind::kLinear;
  double open = 0;
  double scale = 1;

  [[nodiscard]] double operator()(std::size_t j, std::size_t i) const {
    const double len = static_cast<double>(i - j);
    switch (kind) {
      case Kind::kLinear:
        return open + scale * len;
      case Kind::kQuadratic:
        return open + scale * len * len;
      case Kind::kLog1p:
        return open + scale * std::log1p(len);
    }
    return open;  // unreachable: every Kind is handled above
  }
};

/// Calls f with the SpanCost `w` holds (found through
/// std::function::target), or else with `w` itself.  Solve bodies that
/// are templates over the cost dispatch here once, at their public
/// entry, so a span cost is called inline on every relaxation.
template <typename F>
decltype(auto) with_cost(const CostFn& w, F&& f) {
  if (const SpanCost* span = w.target<SpanCost>()) return f(*span);
  return f(w);
}

/// E[j] = f(D[j], j); must be O(1).
using EFn = std::function<double(double, std::size_t)>;

/// The identity E used by the original (non-generalized) LWS.
[[nodiscard]] inline EFn identity_e() {
  return [](double d, std::size_t) { return d; };
}

struct GlwsResult {
  std::vector<double> d;             // D[0..n] (d[0] is the boundary)
  std::vector<std::uint32_t> best;   // best[i], i in 1..n (best[0] unused)
  core::DpStats stats;
  core::SolvePath path = core::SolvePath::kParallel;  // set by glws_auto
};

/// O(n^2) reference (oracle).
[[nodiscard]] GlwsResult glws_naive(std::size_t n, double d0, const CostFn& w,
                                    const EFn& e);

/// Γlws — sequential O(n log n) monotonic-queue algorithm.
[[nodiscard]] GlwsResult glws_sequential(std::size_t n, double d0,
                                         const CostFn& w, const EFn& e,
                                         Shape shape);

/// Parallel Cordon Algorithm (Alg. 1; Alg. 2 merge in the concave case).
/// stats.rounds is the number of cordon rounds (= k in Thm 4.1/4.2).
[[nodiscard]] GlwsResult glws_parallel(std::size_t n, double d0,
                                       const CostFn& w, const EFn& e,
                                       Shape shape);

/// Production entry point: glws_sequential when effective parallelism is
/// below core::kGlwsMinWorkers or n is under core::kGlwsSeqCutoff,
/// glws_parallel otherwise.  The routing decision is recorded in
/// GlwsResult::path.
[[nodiscard]] GlwsResult glws_auto(std::size_t n, double d0, const CostFn& w,
                                   const EFn& e, Shape shape);

// --- append-resumable envelope (solve sessions, convex costs) ---------------
//
// The deque of glws_sequential discards convex candidates whose winning
// suffix starts beyond the current n — exactly the candidates a later
// append may need — so its state cannot be checkpointed.  The
// incremental solver instead keeps the lower envelope as
// DecisionIntervals extending to a fixed `horizon` in a
// PersistentIntervalTreap (Sec. 5.3): no candidate is ever discarded
// for any extension up to the horizon, and path-copying lets N session
// versions share one O(n)-node structure.  Appending a state costs
// O(log n) treap work plus O(log horizon) cost evaluations; already-
// finalized D values never change (appends only add candidates for
// LATER states), so the per-state values are bitwise those of a cold
// sequential solve of the grown instance.
//
// Concave costs admit candidates on a *prefix* of future states — an
// appended state can invalidate the saved front — so sessions fall back
// to cold solves there (the adapter handles the routing).

class ConvexIncremental;  // shared append-only solve log (internal)

/// Immutable O(1) handle on the first `n` states of a shared solve log.
/// Copies are cheap; extending never invalidates existing versions.
/// The log is internally synchronized and heap-owned (survives
/// scheduler pool restarts).
struct IncrementalVersion {
  std::shared_ptr<ConvexIncremental> shared;
  std::size_t n = 0;

  [[nodiscard]] bool valid() const noexcept { return shared != nullptr; }
};

/// Solves states 1..n from scratch (convex costs only) and returns the
/// version handle.  `horizon` bounds every future extension (extending
/// past it throws std::invalid_argument); n must be <= horizon.
[[nodiscard]] IncrementalVersion incremental_solve(std::size_t n, double d0,
                                                   CostFn w, EFn e,
                                                   std::size_t horizon,
                                                   core::DpStats& stats);

/// Version covering n_new >= v.n states; shares all prior structure.
/// Thread-safe against concurrent extends of the same log (appended
/// states are pure functions of the instance, so racing branches agree).
[[nodiscard]] IncrementalVersion incremental_extend(
    const IncrementalVersion& v, std::size_t n_new, core::DpStats& stats);

/// D[v.n] — the objective of the version's instance.
[[nodiscard]] double incremental_objective(const IncrementalVersion& v);

}  // namespace cordon::glws
