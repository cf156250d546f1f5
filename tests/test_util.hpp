// Shared helpers for the test suite: seeded random inputs, the cost
// families used across GLWS / GAP / Tree-GLWS tests, the objective
// comparison tolerance used by the engine/service oracle checks, and a
// gated solver that holds the service's dispatcher at a known point.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/engine/registry.hpp"
#include "src/glws/glws.hpp"
#include "src/parallel/random.hpp"

namespace cordon::testing {

/// Objectives are doubles accumulated in different orders by the
/// optimized and oracle algorithms: compare with a relative tolerance.
inline void expect_objective_near(double got, double want,
                                  const std::string& what) {
  double tol = 1e-6 * std::max(1.0, std::abs(want));
  EXPECT_NEAR(got, want, tol) << what;
}

inline std::vector<std::uint64_t> random_values(std::size_t n,
                                                std::uint64_t seed,
                                                std::uint64_t bound) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = parallel::uniform(seed, i, bound);
  return v;
}

/// Sorted positions x[0..n] (x[0] = 0) with random gaps — the "villages"
/// of the post-office family.
inline std::shared_ptr<std::vector<double>> random_positions(
    std::size_t n, std::uint64_t seed) {
  auto x = std::make_shared<std::vector<double>>(n + 1, 0.0);
  for (std::size_t i = 1; i <= n; ++i)
    (*x)[i] = (*x)[i - 1] + 1.0 + parallel::uniform_double(seed, i) * 9.0;
  return x;
}

/// Convex Monge family: quadratic in the span plus arbitrary separable
/// row/column terms (separable terms cancel in the quadrangle
/// inequality, so convexity is preserved while making the instance
/// non-trivial).
inline glws::CostFn random_convex_cost(std::size_t n, std::uint64_t seed,
                                       double open_cost = 25.0) {
  auto x = random_positions(n, seed);
  auto rowterm = std::make_shared<std::vector<double>>(n + 1);
  auto colterm = std::make_shared<std::vector<double>>(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    (*rowterm)[i] = parallel::uniform_double(seed ^ 0xabc, i) * 3.0;
    (*colterm)[i] = parallel::uniform_double(seed ^ 0xdef, i) * 3.0;
  }
  return [x, rowterm, colterm, open_cost](std::size_t j, std::size_t i) {
    double span = (*x)[i] - (*x)[j];
    return open_cost + 0.05 * span * span + (*rowterm)[j] + (*colterm)[i];
  };
}

/// Concave Monge family: sqrt of the span plus separable terms.
inline glws::CostFn random_concave_cost(std::size_t n, std::uint64_t seed,
                                        double open_cost = 3.0) {
  auto x = random_positions(n, seed);
  auto rowterm = std::make_shared<std::vector<double>>(n + 1);
  auto colterm = std::make_shared<std::vector<double>>(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    (*rowterm)[i] = parallel::uniform_double(seed ^ 0x123, i) * 0.5;
    (*colterm)[i] = parallel::uniform_double(seed ^ 0x456, i) * 0.5;
  }
  return [x, rowterm, colterm, open_cost](std::size_t j, std::size_t i) {
    double span = (*x)[i] - (*x)[j];
    double s = span < 0 ? 0.0 : span;
    return open_cost + std::sqrt(s) + (*rowterm)[j] + (*colterm)[i];
  };
}

/// Every SpanCost kind, for sweeps over the span-cost family.
inline constexpr glws::SpanCost::Kind kSpanKinds[] = {
    glws::SpanCost::Kind::kLinear, glws::SpanCost::Kind::kQuadratic,
    glws::SpanCost::Kind::kLog1p};

/// The formula `c` computes, written out as a plain lambda.  with_cost
/// cannot see a SpanCost in it, so a solver given this CostFn runs its
/// type-erased instantiation.  Kept out of line: gcc 12 at -O2 inlines
/// its switch of lambdas into std::function::target and reports a false
/// -Wmaybe-uninitialized there.
[[gnu::noinline]] inline glws::CostFn plain_span_cost(
    const glws::SpanCost& c) {
  const double o = c.open, s = c.scale;
  switch (c.kind) {
    case glws::SpanCost::Kind::kLinear:
      return [o, s](std::size_t j, std::size_t i) {
        return o + s * static_cast<double>(i - j);
      };
    case glws::SpanCost::Kind::kQuadratic:
      return [o, s](std::size_t j, std::size_t i) {
        double len = static_cast<double>(i - j);
        return o + s * len * len;
      };
    case glws::SpanCost::Kind::kLog1p:
      return [o, s](std::size_t j, std::size_t i) {
        return o + s * std::log1p(static_cast<double>(i - j));
      };
  }
  return {};
}

/// Two runs did exactly the same work.
inline void expect_same_stats(const core::DpStats& a, const core::DpStats& b) {
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.relaxations, b.relaxations);
  EXPECT_EQ(a.rounds, b.rounds);
}

/// A random parent array for a rooted tree: parent[v] uniform in [0, v).
inline std::vector<std::uint32_t> random_tree_parents(std::size_t n,
                                                      std::uint64_t seed) {
  std::vector<std::uint32_t> parent(n, 0xffffffffu);
  for (std::uint32_t v = 1; v < n; ++v)
    parent[v] = static_cast<std::uint32_t>(parallel::uniform(seed, v, v));
  return parent;
}

/// A path graph (worst depth), rooted at 0.
inline std::vector<std::uint32_t> path_tree_parents(std::size_t n) {
  std::vector<std::uint32_t> parent(n, 0xffffffffu);
  for (std::uint32_t v = 1; v < n; ++v) parent[v] = v - 1;
  return parent;
}

/// A caterpillar: a spine with one leaf per spine node.
inline std::vector<std::uint32_t> caterpillar_parents(std::size_t n) {
  std::vector<std::uint32_t> parent(n, 0xffffffffu);
  for (std::uint32_t v = 1; v < n; ++v)
    parent[v] = v % 2 == 0 ? v - 2 : v - 1;
  if (n > 1) parent[1] = 0;
  if (n > 2) parent[2] = 0;
  return parent;
}

/// Holds every solve that enters it until the test calls open().  Once
/// open, it stays open.
class Gate {
 public:
  /// Records that a solve reached the gate, then blocks until open().
  void enter() {
    std::unique_lock lock(mu_);
    ++started_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  /// Blocks until `n` solves have reached the gate.
  void wait_started(std::size_t n) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return started_ >= n; });
  }
  void open() {
    std::lock_guard lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t started_ = 0;
  bool open_ = false;
};

/// The builtin `lis` adapter, under the same key, with every solve()
/// passing through `gate` first.  Registered in a test-local registry
/// it lets a service test hold the dispatcher inside a batch while it
/// queues requests behind it, with no timing window.  The gate must
/// outlive every solve, and must be opened before the service drains.
class GatedLis final : public engine::Solver {
 public:
  explicit GatedLis(Gate& gate) : gate_(gate) {}

  [[nodiscard]] std::string_view key() const override { return inner_.key(); }
  [[nodiscard]] std::string_view description() const override {
    return "lis behind a test gate";
  }
  [[nodiscard]] engine::SolveResult solve(
      const engine::Instance& inst) const override {
    gate_.enter();
    return inner_.solve(inst);
  }
  [[nodiscard]] engine::SolveResult solve_reference(
      const engine::Instance& inst) const override {
    return inner_.solve_reference(inst);
  }
  [[nodiscard]] engine::Instance generate(
      const engine::GenOptions& opt) const override {
    return inner_.generate(opt);
  }

 private:
  Gate& gate_;
  const engine::Solver& inner_ = engine::builtin_registry().at("lis");
};

/// A registry holding only a GatedLis on `gate`.
inline engine::ProblemRegistry gated_lis_registry(Gate& gate) {
  engine::ProblemRegistry reg;
  reg.add(std::make_unique<GatedLis>(gate));
  return reg;
}

}  // namespace cordon::testing
