// The Cordon Algorithm framework (Sec. 2.3).
//
// `ExplicitCordon` — Steps 1-5 of Sec. 2.3 over an explicit DpDag, with
// two bodies.  run_affine() is a frontier execution in O(n + E) work,
// the production solver of the engine's `dag` family
// (src/engine/dag_solver.cpp); run_generic() is the literal O(rounds *
// E) pass, the reference semantics in tests (Thm 2.1 correctness) for
// arbitrary transitions.  The specialized algorithms (GLWS, LCS, GAP,
// ...) each run their own phase-parallel rounds with their own data
// structures: the framework prescribes *what* a round computes (the
// frontier delimited by sentinels), while efficiency comes from
// per-problem structures.
#pragma once

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

namespace cordon::core {

/// Steps 1-5 of the Cordon Algorithm over an explicit DAG.
///
/// Step 2 puts a sentinel on every tentative state that a *tentative*
/// state can successfully relax; a state is ready iff no sentinel sits on
/// any ancestor (inclusive).  Step 3 relaxes descendants of ready states;
/// Step 4 finalizes.  Both bodies finalize the same states in the same
/// rounds with the same values:
///   * run_affine(): when every edge is f(x) = x + w (all_affine(), the
///     serializable DAG family).  A round's ready set grows from the
///     states whose sources are all final: a state whose last unfinalized
///     source joins is ready unless that round's sources relax it, which
///     is one test over its in-edges.  Only then do the new final states
///     push d + w along their out-edges.  Edges live in CSR src/dst +
///     weight arrays; apart from the out-edge index (one build_csr per
///     solve) the scratch comes from the worker arena;
///   * run_generic(): the literal per-round pass over every unfinalized
///     state with one std::function call per edge, kept as the reference
///     semantics for arbitrary transitions.
class ExplicitCordon {
 public:
  explicit ExplicitCordon(const DpDag& dag) : dag_(dag) {}

  struct Result {
    std::vector<double> values;
    std::vector<std::uint32_t> round_of;  // round in which each state finalized
    std::uint64_t rounds = 0;
    // Edges read by the body, which is its work:
    //   * run_generic: every in-edge of each unfinalized state, once in
    //     the sentinel pass (Step 2) and once in the relax pass (Step 3)
    //     of every round it stays unfinalized;
    //   * run_affine: the in-edges of each state once, in its sentinel
    //     test, plus each edge once more when its source finalizes
    //     before its destination (the push), so at most 2E.
    std::uint64_t relaxations = 0;
  };

  [[nodiscard]] Result run() const {
    return dag_.all_affine() ? run_affine() : run_generic();
  }

  /// Frontier execution over CSR SoA edges; requires all_affine().
  [[nodiscard]] Result run_affine() const {
    const std::size_t n = dag_.num_states();
    const std::size_t num_edges = dag_.num_edges();
    const std::vector<DpDag::Edge>& edges = dag_.edges();
    const bool minimize = dag_.objective() == Objective::kMin;
    const double worst = minimize ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity();
    auto better = [&](double a, double b) { return minimize ? a < b : a > b; };

    Arena& arena = worker_arena();
    ArenaScope scratch(arena);

    // Both edge directions as src/dst + weight slices: the in-edges of i
    // sit at [in.start[i], in.start[i+1]) for its sentinel test, the
    // out-edges of j at [out.start[j], out.start[j+1]) for its pushes.
    // Copying them out of the Edge records first is one streaming pass,
    // and the tests and pushes, which visit states in frontier order,
    // then read 12 bytes per edge instead of a whole record.
    const Csr& in = dag_.in_edges();
    const Csr out = build_csr(n, num_edges,
                              [&](std::size_t k) { return edges[k].src; });
    std::span<std::uint32_t> in_src = arena.make_span<std::uint32_t>(num_edges);
    std::span<double> in_w = arena.make_span<double>(num_edges);
    std::span<std::uint32_t> out_dst =
        arena.make_span<std::uint32_t>(num_edges);
    std::span<double> out_w = arena.make_span<double>(num_edges);
    for (std::size_t k = 0; k < num_edges; ++k) {
      const DpDag::Edge& e = edges[in.items[k]];
      in_src[k] = e.src;
      in_w[k] = e.weight;
      const DpDag::Edge& f = edges[out.items[k]];
      out_dst[k] = f.dst;
      out_w[k] = f.weight;
    }

    // Step 1: tentative values are exactly the boundary conditions.
    std::vector<double> d(n, worst);
    for (auto& [state, value] : dag_.boundaries()) d[state] = value;

    Result res;
    res.round_of.assign(n, 0);  // 0 = not finalized yet
    // pending[i]: in-edges of i whose source is not finalized.  order
    // lists the states in finalization order, so a round's ready set is
    // the slice order[begin, end).  next holds the states that open the
    // next round: every source is final, and no sentinel can sit on them.
    std::span<std::uint32_t> pending = arena.make_span<std::uint32_t>(n);
    std::span<std::uint32_t> order = arena.make_span<std::uint32_t>(n);
    std::span<std::uint32_t> next = arena.make_span<std::uint32_t>(n);
    std::size_t next_size = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      pending[i] = in.start[i + 1] - in.start[i];
      if (pending[i] == 0) next[next_size++] = i;
    }

    std::size_t end = 0;
    while (end < n) {
      poll_cancel();  // round boundary: cancellation/deadline check
      ++res.rounds;
      telemetry::TraceSpan round_span("dag.round", "solver");
      telemetry::count(telemetry::Counter::kSolverRounds);
      const auto round = static_cast<std::uint32_t>(res.rounds);
      const std::size_t begin = end;
      for (std::size_t k = 0; k < next_size; ++k) {
        order[end++] = next[k];
        res.round_of[next[k]] = round;
      }
      next_size = 0;
      // Step 2: a state whose last unfinalized source joins this round
      // had only ready tentative sources, so it is ready unless one of
      // them relaxes it successfully (a sentinel).  That test reads the
      // round-start d: no push runs until the ready set is fixed.  Its
      // sources from earlier rounds have pushed into d[i] already, so
      // they cannot relax it and the test may read every in-edge.
      std::uint64_t evaluated = 0;  // in-edges tested + out-edges pushed
      for (std::size_t q = begin; q < end; ++q) {
        const std::uint32_t j = order[q];
        for (std::uint32_t k = out.start[j]; k < out.start[j + 1]; ++k) {
          const std::uint32_t i = out_dst[k];
          if (--pending[i] != 0) continue;
          bool sentinel = false;
          for (std::uint32_t e = in.start[i]; e < in.start[i + 1]; ++e) {
            const std::uint32_t src = in_src[e];
            sentinel |= better(d[src] + in_w[e], d[i]);
          }
          evaluated += in[i].size();
          if (sentinel) {
            next[next_size++] = i;
          } else {
            res.round_of[i] = round;
            order[end++] = i;
          }
        }
      }
      if (end == begin) throw_stuck(res.rounds, n - end, res.round_of);
      // Steps 3+4: the ready states are final; they relax every
      // unfinalized successor once.
      for (std::size_t q = begin; q < end; ++q) {
        const std::uint32_t j = order[q];
        for (std::uint32_t k = out.start[j]; k < out.start[j + 1]; ++k) {
          const std::uint32_t i = out_dst[k];
          if (res.round_of[i] != 0) continue;
          ++evaluated;
          const double cand = d[j] + out_w[k];
          if (better(cand, d[i])) d[i] = cand;
        }
      }
      res.relaxations += evaluated;
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
