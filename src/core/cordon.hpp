// The Cordon Algorithm framework (Sec. 2.3).
//
// Two layers:
//
// 1. `run_phase_parallel` — the thin generic driver.  Each specialized
//    algorithm (GLWS, LCS, GAP, ...) implements one phase-parallel
//    `round()` efficiently with its own data structures; the driver just
//    loops rounds and counts them.  This is deliberately minimal: the
//    paper's framework prescribes *what* a round computes (the frontier
//    delimited by sentinels), while efficiency comes from per-problem
//    structures.
//
// 2. `ExplicitCordon` — a literal, unoptimized execution of Steps 1-5 of
//    Sec. 2.3 over an explicit DpDag.  O(rounds * E) work.  Its
//    run_affine() body is the production solver of the engine's `dag`
//    family (src/engine/dag_solver.cpp); run_generic() is the reference
//    semantics in tests (Thm 2.1 correctness) for arbitrary transitions.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/arena.hpp"
#include "src/core/dp_dag.hpp"
#include "src/core/trace.hpp"
#include "src/core/dp_stats.hpp"
#include "src/core/kernels.hpp"

namespace cordon::core {

/// A phase-parallel problem exposes `done()` and one `round()` of work.
template <typename P>
concept PhaseParallelProblem = requires(P p) {
  { p.done() } -> std::convertible_to<bool>;
  p.round();
};

/// Runs rounds until completion; returns the number of rounds (the span
/// driver of every theorem in the paper).
template <PhaseParallelProblem P>
std::uint64_t run_phase_parallel(P& problem) {
  std::uint64_t rounds = 0;
  while (!problem.done()) {
    poll_cancel();  // round boundary: cancellation/deadline check
    telemetry::TraceSpan round_span("phase.round", "solver");
    telemetry::count(telemetry::Counter::kSolverRounds);
    problem.round();
    ++rounds;
  }
  return rounds;
}

/// Literal Steps 1-5 of the Cordon Algorithm over an explicit DAG.
///
/// Step 2 puts a sentinel on every tentative state that a *tentative*
/// state can successfully relax; a state is ready iff no sentinel sits on
/// any ancestor (inclusive).  Step 3 relaxes descendants of ready states;
/// Step 4 finalizes.  The per-round computation is the obvious O(E) pass
/// — this class pins down semantics — but the *execution* of that pass
/// has two bodies:
///   * run_affine(): when every edge is f(x) = x + w (all_affine(), the
///     serializable DAG family), edges live in CSR struct-of-arrays form
///     and the sentinel/relax inner loops are the masked gather kernels
///     of core/kernels.hpp over contiguous weight arrays, with all
///     per-round scratch carved from the worker arena;
///   * run_generic(): the original std::function-per-edge loop, kept as
///     the reference semantics for arbitrary transitions — and as the
///     scalar oracle the kernel path is tested against.
class ExplicitCordon {
 public:
  explicit ExplicitCordon(const DpDag& dag) : dag_(dag) {}

  struct Result {
    std::vector<double> values;
    std::vector<std::uint32_t> round_of;  // round in which each state finalized
    std::uint64_t rounds = 0;
    // In-edges evaluated: every in-edge of each unfinalized state, once
    // in the sentinel pass (Step 2) and once in the relax pass (Step 3)
    // of every round it stays unfinalized.  Both bodies count the same
    // edges, so the number is a property of the DAG, not of the body.
    std::uint64_t relaxations = 0;
  };

  [[nodiscard]] Result run() const {
    return dag_.all_affine() ? run_affine() : run_generic();
  }

  /// Kernelized execution over CSR SoA edges; requires all_affine().
  [[nodiscard]] Result run_affine() const {
    const std::size_t n = dag_.num_states();
    const std::size_t num_edges = dag_.num_edges();
    const bool minimize = dag_.objective() == Objective::kMin;
    const double worst = minimize ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity();
    auto better = [&](double a, double b) { return minimize ? a < b : a > b; };

    Arena& arena = worker_arena();
    ArenaScope scratch(arena);

    // CSR by destination: in-edges of state i are the contiguous slice
    // [in_start[i], in_start[i+1]) of the src/weight SoA arrays, gathered
    // in the DAG's own in-edge order.
    const Csr& in = dag_.in_edges();
    const std::span<const std::uint32_t> in_start = in.start;
    std::span<std::uint32_t> in_src = arena.make_span<std::uint32_t>(num_edges);
    std::span<double> in_w = arena.make_span<double>(num_edges);
    for (std::size_t k = 0; k < num_edges; ++k) {
      const DpDag::Edge& e = dag_.edges()[in.items[k]];
      in_src[k] = e.src;
      in_w[k] = e.weight;
    }

    // Step 1: tentative values are exactly the boundary conditions.
    std::vector<double> d(n, worst);
    for (auto& [state, value] : dag_.boundaries()) d[state] = value;

    std::span<std::uint8_t> finalized =
        arena.make_span<std::uint8_t>(n, std::uint8_t{0});
    std::span<std::uint8_t> tentative =
        arena.make_span<std::uint8_t>(n, std::uint8_t{1});
    std::span<std::uint8_t> blocked = arena.make_span<std::uint8_t>(n);
    Result res;
    res.round_of.assign(n, 0);

    auto in_count = [&](std::size_t i) {
      return static_cast<std::size_t>(in_start[i + 1] - in_start[i]);
    };
    auto tentative_best = [&](std::size_t i) {
      // Best relaxation of i from TENTATIVE sources only (Step 2).
      return minimize
                 ? kernels::min_gather_add(d.data(), in_src.data() + in_start[i],
                                           in_w.data() + in_start[i],
                                           tentative.data(), in_count(i))
                 : kernels::max_gather_add(d.data(), in_src.data() + in_start[i],
                                           in_w.data() + in_start[i],
                                           tentative.data(), in_count(i));
    };
    auto finalized_best = [&](std::size_t i) {
      // Best relaxation of i from FINALIZED sources only (Step 3).
      return minimize
                 ? kernels::min_gather_add(d.data(), in_src.data() + in_start[i],
                                           in_w.data() + in_start[i],
                                           finalized.data(), in_count(i))
                 : kernels::max_gather_add(d.data(), in_src.data() + in_start[i],
                                           in_w.data() + in_start[i],
                                           finalized.data(), in_count(i));
    };

    std::vector<std::uint32_t> frontier;  // reused every round
    std::size_t remaining = n;
    while (remaining > 0) {
      poll_cancel();  // round boundary: cancellation/deadline check
      ++res.rounds;
      telemetry::TraceSpan round_span("dag.round", "solver");
      telemetry::count(telemetry::Counter::kSolverRounds);
      std::uint64_t evaluated = 0;  // in-edges gathered this round
      // Step 2: sentinel iff some tentative source successfully relaxes
      // i; blocked = descendants (inclusive) of sentinel states — one
      // pass in state order suffices because src < dst on every edge.
      for (std::uint32_t i = 0; i < n; ++i) {
        if (finalized[i] != 0) {
          blocked[i] = 0;
          continue;
        }
        evaluated += in_count(i);
        bool sentinel = better(tentative_best(i), d[i]);
        blocked[i] =
            sentinel ||
            kernels::mask_gather_any(blocked.data(),
                                     in_src.data() + in_start[i], in_count(i));
      }
      // Steps 3+4: ready states finalize and relax their descendants.
      frontier.clear();
      for (std::uint32_t i = 0; i < n; ++i)
        if (finalized[i] == 0 && blocked[i] == 0) frontier.push_back(i);
      for (std::uint32_t i : frontier) {
        finalized[i] = 1;
        tentative[i] = 0;
        res.round_of[i] = static_cast<std::uint32_t>(res.rounds);
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        if (finalized[i] != 0) continue;
        evaluated += in_count(i);
        double cand = finalized_best(i);
        if (better(cand, d[i])) d[i] = cand;
      }
      res.relaxations += evaluated;
      remaining -= frontier.size();
      if (frontier.empty()) throw_stuck(res.rounds, remaining, finalized);
    }
    res.values = std::move(d);
    return res;
  }

  /// Reference execution: one type-erased call per edge, scalar loops.
  [[nodiscard]] Result run_generic() const {
    const std::size_t n = dag_.num_states();
    const bool minimize = dag_.objective() == Objective::kMin;
    const double worst = minimize ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity();
    auto better = [&](double a, double b) {
      return minimize ? a < b : a > b;
    };

    // Step 1: tentative values are exactly the boundary conditions —
    // including boundaries on states that also have incoming edges
    // (evaluate() treats those as relaxation candidates too, so the
    // cordon must start from the same values).
    std::vector<double> d(n, worst);
    for (auto& [state, value] : dag_.boundaries()) d[state] = value;

    std::vector<bool> finalized(n, false);
    Result res;
    res.round_of.assign(n, 0);

    // In-edges by destination, so per-round passes visit states in
    // topological order (src < dst always holds).
    const Csr& in = dag_.in_edges();
    const std::vector<DpDag::Edge>& edges = dag_.edges();

    std::size_t remaining = n;
    while (remaining > 0) {
      poll_cancel();  // round boundary: cancellation/deadline check
      ++res.rounds;
      telemetry::TraceSpan round_span("dag.round", "solver");
      telemetry::count(telemetry::Counter::kSolverRounds);
      // Step 2: sentinels.  j tentative relaxing i tentative successfully.
      std::vector<bool> sentinel(n, false);
      // Blocked = descendants (inclusive) of sentinel states; a single
      // pass in state order suffices because src < dst for every edge.
      std::vector<bool> blocked(n, false);
      std::uint64_t evaluated = 0;  // in-edges visited this round
      for (std::uint32_t i = 0; i < n; ++i) {
        if (finalized[i]) continue;
        evaluated += in[i].size();
        for (std::uint32_t k : in[i]) {
          const DpDag::Edge& e = edges[k];
          if (!finalized[e.src] && better(e.f(d[e.src]), d[i]))
            sentinel[i] = true;
          if (blocked[e.src]) blocked[i] = true;
        }
        if (sentinel[i]) blocked[i] = true;
      }
      // Steps 3+4: ready states finalize and relax their descendants.
      std::vector<std::uint32_t> frontier;
      for (std::uint32_t i = 0; i < n; ++i)
        if (!finalized[i] && !blocked[i]) frontier.push_back(i);
      for (std::uint32_t i : frontier) {
        finalized[i] = true;
        res.round_of[i] = static_cast<std::uint32_t>(res.rounds);
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        if (finalized[i]) continue;
        evaluated += in[i].size();
        for (std::uint32_t k : in[i]) {
          const DpDag::Edge& e = edges[k];
          if (!finalized[e.src]) continue;
          double cand = e.f(d[e.src]);
          if (better(cand, d[i])) d[i] = cand;
        }
      }
      res.relaxations += evaluated;
      remaining -= frontier.size();
      if (frontier.empty()) throw_stuck(res.rounds, remaining, finalized);
    }
    res.values = std::move(d);
    return res;
  }

 private:
  // Every well-formed DAG (src < dst on all edges) has a ready state
  // each round: the smallest unfinalized index can carry neither a
  // sentinel nor inherited blocking.  An empty frontier therefore means
  // the DAG violates an internal invariant; returning the partial values
  // would silently corrupt results.
  template <typename FinalizedMask>
  [[noreturn]] void throw_stuck(std::uint64_t rounds, std::size_t remaining,
                                const FinalizedMask& finalized) const {
    std::string msg = "ExplicitCordon: no ready state in round " +
                      std::to_string(rounds) + "; " +
                      std::to_string(remaining) + " state(s) stuck:";
    int listed = 0;
    for (std::uint32_t i = 0; i < dag_.num_states() && listed < 8; ++i) {
      if (!finalized[i]) {
        msg += ' ' + std::to_string(i);
        ++listed;
      }
    }
    if (remaining > 8) msg += " ...";
    throw std::runtime_error(msg);
  }

  const DpDag& dag_;
};

}  // namespace cordon::core
