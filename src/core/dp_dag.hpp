// Explicit DP DAG: the reference model of Sec. 1-2.
//
// States are integers 0..n-1 in topological order; an edge j -> i (j < i)
// carries a transition function value f_ij(D[j]).  This module provides
//   * a naive topological evaluator (the textbook DP) — the correctness
//     oracle every optimized/parallel algorithm is tested against, and
//   * effective-depth computation d^(G) (Sec. 2.2): the longest chain of
//     *effective* edges over any path, which lower-bounds the rounds of
//     any faithful parallelization and is what the span theorems are
//     parameterized by.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/core/csr.hpp"

namespace cordon::core {

enum class Objective { kMin, kMax };

/// An explicit DP DAG over states 0..n-1 (indices are a topological order).
/// Edge (src -> dst, f) means D[dst] can be relaxed with f(D[src]).
class DpDag {
 public:
  using Transition = std::function<double(double)>;

  struct Edge {
    std::uint32_t src;
    std::uint32_t dst;
    Transition f;
    bool effective = true;  // does the optimized sequential algorithm process it?
    bool affine = false;    // true iff f(x) == x + weight (weight below)
    double weight = 0;      // meaningful only when affine
  };

  DpDag(std::size_t n, Objective obj) : n_(n), objective_(obj) {}

  void add_edge(std::uint32_t src, std::uint32_t dst, Transition f,
                bool effective = true) {
    check_edge(src, dst);
    edges_.push_back({src, dst, std::move(f), effective, false, 0.0});
    in_edges_.reset();
  }

  /// Affine transition f(x) = x + weight, recorded as data rather than
  /// code.  When EVERY edge is affine (all_affine()), ExplicitCordon runs
  /// its O(n + E) frontier body over CSR weight arrays instead of calling
  /// one std::function per edge in every round.
  void add_affine_edge(std::uint32_t src, std::uint32_t dst, double weight,
                       bool effective = true) {
    check_edge(src, dst);
    edges_.push_back({src, dst,
                      [weight](double x) { return x + weight; }, effective,
                      true, weight});
    ++affine_edges_;
    in_edges_.reset();
  }

  /// True when every edge was added through add_affine_edge.
  [[nodiscard]] bool all_affine() const noexcept {
    return affine_edges_ == edges_.size();
  }

  void set_boundary(std::uint32_t state, double value) {
    boundary_.emplace_back(state, value);
  }

  [[nodiscard]] std::size_t num_states() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return edges_.size();
  }
  [[nodiscard]] Objective objective() const noexcept { return objective_; }
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept {
    return edges_;
  }
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, double>>&
  boundaries() const noexcept {
    return boundary_;
  }

  /// In-edges by destination: in_edges()[i] lists the indices into
  /// edges() of every edge into state i, in insertion order.  Built by
  /// the first call after the last add_*edge and shared by every reader
  /// (evaluate, effective_depth, ExplicitCordon); like any lazily built
  /// member, that first call must not race another reader.
  [[nodiscard]] const Csr& in_edges() const {
    if (!in_edges_)
      in_edges_ = build_csr(n_, edges_.size(),
                            [&](std::size_t k) { return edges_[k].dst; });
    return *in_edges_;
  }

  /// Naive topological evaluation of the recurrence: processes every edge.
  /// The oracle for all optimized algorithms.
  [[nodiscard]] std::vector<double> evaluate() const {
    const double worst = objective_ == Objective::kMin
                             ? std::numeric_limits<double>::infinity()
                             : -std::numeric_limits<double>::infinity();
    std::vector<double> d(n_, worst);
    for (auto& [s, v] : boundary_) d[s] = v;
    const Csr& in = in_edges();
    for (std::uint32_t i = 0; i < n_; ++i) {
      for (std::uint32_t k : in[i]) {
        const Edge& e = edges_[k];
        double cand = e.f(d[e.src]);
        if (objective_ == Objective::kMin ? cand < d[i] : cand > d[i])
          d[i] = cand;
      }
    }
    return d;
  }

  /// Effective depth d^(G): max number of effective edges on any path
  /// (Sec. 2.2).  Computed by DP over the topological order.
  [[nodiscard]] std::uint64_t effective_depth() const {
    std::vector<std::uint64_t> depth(n_, 0);
    const Csr& in = in_edges();
    std::uint64_t best = 0;
    for (std::uint32_t i = 0; i < n_; ++i) {
      for (std::uint32_t k : in[i]) {
        const Edge& e = edges_[k];
        std::uint64_t cand = depth[e.src] + (e.effective ? 1 : 0);
        if (cand > depth[i]) depth[i] = cand;
      }
      if (depth[i] > best) best = depth[i];
    }
    return best;
  }

 private:
  void check_edge(std::uint32_t src, std::uint32_t dst) const {
    if (src >= dst) throw std::invalid_argument("DpDag: src must be < dst");
    if (dst >= n_) throw std::invalid_argument("DpDag: state out of range");
  }

  std::size_t n_;
  Objective objective_;
  std::vector<Edge> edges_;
  std::size_t affine_edges_ = 0;
  std::vector<std::pair<std::uint32_t, double>> boundary_;
  mutable std::optional<Csr> in_edges_;  // see in_edges()
};

}  // namespace cordon::core
