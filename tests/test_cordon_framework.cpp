// The generic framework: DpDag oracle evaluation, effective depth, and
// the literal Cordon execution (Thm 2.1 correctness) on random DAGs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/core/cordon.hpp"
#include "src/core/dp_dag.hpp"
#include "src/core/monge.hpp"
#include "src/engine/registry.hpp"
#include "src/parallel/random.hpp"

namespace cc = cordon::core;
namespace ce = cordon::engine;
namespace cp = cordon::parallel;

namespace {

// Random DAG in topological order with additive edge costs (shortest-path
// style min DP).
cc::DpDag random_dag(std::size_t n, std::uint64_t seed, double edge_prob) {
  cc::DpDag dag(n, cc::Objective::kMin);
  dag.set_boundary(0, 0.0);
  for (std::uint32_t i = 1; i < n; ++i) {
    bool any = false;
    for (std::uint32_t j = 0; j < i; ++j) {
      if (cp::uniform_double(seed, i * n + j) < edge_prob) {
        double c = 1.0 + cp::uniform_double(seed ^ 7, i * n + j) * 9.0;
        dag.add_edge(j, i, [c](double d) { return d + c; });
        any = true;
      }
    }
    if (!any) {
      double c = 1.0 + cp::uniform_double(seed ^ 7, i) * 9.0;
      dag.add_edge(i - 1, i, [c](double d) { return d + c; });
    }
  }
  return dag;
}

// Random affine DAG with everything the frontier body must get right:
// either objective, doubled edges, boundaries on states with in-edges,
// states no boundary reaches, and zero or negative weights.
cc::DpDag random_affine_dag(std::size_t n, std::uint64_t seed) {
  const auto obj = cp::uniform(seed, 0, 2) == 0 ? cc::Objective::kMin
                                                : cc::Objective::kMax;
  cc::DpDag dag(n, obj);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i == 0 || cp::uniform(seed ^ 3, i, 8) == 0)
      dag.set_boundary(i, static_cast<double>(cp::uniform(seed ^ 5, i, 9)));
    const std::uint64_t in_degree = i == 0 ? 0 : cp::uniform(seed ^ 7, i, 4);
    for (std::uint64_t c = 0; c < in_degree; ++c) {
      auto src = static_cast<std::uint32_t>(cp::uniform(seed, i * 4 + c, i));
      auto w = static_cast<double>(cp::uniform(seed ^ 9, i * 4 + c, 7)) - 2;
      dag.add_affine_edge(src, i, w);
      if (cp::uniform(seed ^ 11, i * 4 + c, 6) == 0)
        dag.add_affine_edge(src, i, w + 1);
    }
  }
  return dag;
}

// The frontier body must finalize the same states in the same rounds
// with the same values as the literal pass, reading each edge at most
// twice.
void expect_affine_matches_generic(const cc::DpDag& dag,
                                   const std::string& what) {
  ASSERT_TRUE(dag.all_affine()) << what;
  auto affine = cc::ExplicitCordon(dag).run_affine();
  auto generic = cc::ExplicitCordon(dag).run_generic();
  EXPECT_EQ(affine.values, generic.values) << what;
  EXPECT_EQ(affine.rounds, generic.rounds) << what;
  EXPECT_EQ(affine.round_of, generic.round_of) << what;
  EXPECT_LE(affine.relaxations, 2 * dag.num_edges()) << what;
}

}  // namespace

TEST(DpDag, EvaluateChain) {
  cc::DpDag dag(4, cc::Objective::kMin);
  dag.set_boundary(0, 0.0);
  for (std::uint32_t i = 1; i < 4; ++i)
    dag.add_edge(i - 1, i, [](double d) { return d + 2.0; });
  auto vals = dag.evaluate();
  EXPECT_DOUBLE_EQ(vals[3], 6.0);
  EXPECT_EQ(dag.effective_depth(), 3u);
}

TEST(DpDag, ParallelEdgesAndBoundaryWithInEdges) {
  // Edges arrive out of destination order, 0->2 and 1->3 are doubled,
  // and state 2 has a boundary value that its in-edges beat.
  cc::DpDag dag(4, cc::Objective::kMin);
  dag.set_boundary(0, 0.0);
  dag.set_boundary(2, 4.0);
  dag.add_affine_edge(1, 3, 7.0, /*effective=*/false);
  dag.add_affine_edge(0, 1, 1.0);
  dag.add_affine_edge(0, 2, 9.0);
  dag.add_affine_edge(1, 2, 2.0);
  dag.add_affine_edge(0, 2, 5.0);
  dag.add_affine_edge(2, 3, 1.0);
  dag.add_affine_edge(1, 3, 3.0);
  const std::vector<double> want{0.0, 1.0, 3.0, 4.0};
  EXPECT_EQ(dag.evaluate(), want);
  EXPECT_EQ(dag.effective_depth(), 3u);  // 0 -> 1 -> 2 -> 3
  auto affine = cc::ExplicitCordon(dag).run_affine();
  auto generic = cc::ExplicitCordon(dag).run_generic();
  EXPECT_EQ(affine.values, want);
  EXPECT_EQ(generic.values, want);
  EXPECT_EQ(affine.rounds, generic.rounds);
  EXPECT_EQ(affine.round_of, generic.round_of);
  EXPECT_LE(affine.relaxations, 2 * dag.num_edges());
  // An edge added after a read must show up in the next one.
  dag.add_affine_edge(0, 3, 0.5);
  EXPECT_DOUBLE_EQ(dag.evaluate()[3], 0.5);
  EXPECT_DOUBLE_EQ(cc::ExplicitCordon(dag).run().values[3], 0.5);
}

TEST(DpDag, EffectiveDepthIgnoresNormalEdges) {
  cc::DpDag dag(4, cc::Objective::kMin);
  dag.set_boundary(0, 0.0);
  dag.add_edge(0, 1, [](double d) { return d + 1; }, /*effective=*/true);
  dag.add_edge(1, 2, [](double d) { return d + 1; }, /*effective=*/false);
  dag.add_edge(2, 3, [](double d) { return d + 1; }, /*effective=*/true);
  EXPECT_EQ(dag.effective_depth(), 2u);
}

class CordonDagSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CordonDagSweep, MatchesTopologicalEvaluation) {
  const std::uint64_t seed = GetParam();
  for (std::size_t n : {2, 5, 17, 40, 80}) {
    cc::DpDag dag = random_dag(n, seed, 0.3);
    auto expect = dag.evaluate();
    cc::ExplicitCordon cordon(dag);
    auto got = cordon.run();
    ASSERT_EQ(got.values.size(), expect.size());
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_DOUBLE_EQ(got.values[i], expect[i]) << "n=" << n << " i=" << i;
    // Rounds can never exceed n; every state must be finalized in some
    // round >= 1.
    ASSERT_LE(got.rounds, n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_GE(got.round_of[i], 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CordonDagSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ExplicitCordon, ChainRoundsEqualDepth) {
  // A pure chain has effective depth n-1: the cordon must take exactly
  // n-1 rounds after finalizing state 0 in round 1.
  const std::size_t n = 12;
  cc::DpDag dag(n, cc::Objective::kMin);
  dag.set_boundary(0, 0.0);
  for (std::uint32_t i = 1; i < n; ++i)
    dag.add_edge(i - 1, i, [](double d) { return d + 1.0; });
  auto got = cc::ExplicitCordon(dag).run();
  EXPECT_EQ(got.rounds, n);  // one state per round (chain dependencies)
  for (std::uint32_t i = 0; i < n; ++i) EXPECT_EQ(got.round_of[i], i + 1);
  // Relaxations count the in-edges the two passes scan, not rounds x E:
  // in round r the sentinel pass sees states r-1.. (n - max(r-1, 1)
  // in-edges) and the relax pass states r.. (n - r in-edges).
  std::uint64_t want = 0;
  for (std::size_t r = 1; r <= n; ++r)
    want += (n - std::max<std::size_t>(r - 1, 1)) + (n - r);
  EXPECT_EQ(got.relaxations, want);  // 143, where rounds x E is 132
}

TEST(ExplicitCordon, IndependentStatesFinishInOneRound) {
  // Star from state 0: everything depends only on 0, so two rounds.
  const std::size_t n = 20;
  cc::DpDag dag(n, cc::Objective::kMin);
  dag.set_boundary(0, 0.0);
  for (std::uint32_t i = 1; i < n; ++i)
    dag.add_edge(0, i, [](double d) { return d + 1.0; });
  auto got = cc::ExplicitCordon(dag).run();
  EXPECT_EQ(got.rounds, 2u);
  // Round 1 scans all n-1 edges in both passes; round 2 only in the
  // sentinel pass, which finalizes everything.
  EXPECT_EQ(got.relaxations, 3 * (n - 1));
}

TEST(ExplicitCordon, AffineChainPinsFrontierWork) {
  // Round r finalizes state r-1; its one out-edge closes state r, whose
  // sentinel test (1 in-edge) fails, and then carries the push: 2E.
  const std::size_t n = 12;
  cc::DpDag dag(n, cc::Objective::kMin);
  dag.set_boundary(0, 0.0);
  for (std::uint32_t i = 1; i < n; ++i) dag.add_affine_edge(i - 1, i, 1.0);
  auto got = cc::ExplicitCordon(dag).run_affine();
  EXPECT_EQ(got.rounds, n);
  for (std::uint32_t i = 0; i < n; ++i) EXPECT_EQ(got.round_of[i], i + 1);
  EXPECT_EQ(got.relaxations, 2 * (n - 1));  // 22, where run_generic reads 143
  EXPECT_EQ(got.values.back(), static_cast<double>(n - 1));
}

TEST(ExplicitCordon, AffineStarPinsFrontierWork) {
  // Round 1 tests every leaf once (each is a sentinel of state 0) and
  // pushes to it once; round 2 finalizes all leaves and reads nothing.
  const std::size_t n = 20;
  cc::DpDag dag(n, cc::Objective::kMin);
  dag.set_boundary(0, 0.0);
  for (std::uint32_t i = 1; i < n; ++i) dag.add_affine_edge(0, i, 1.0);
  auto got = cc::ExplicitCordon(dag).run_affine();
  EXPECT_EQ(got.rounds, 2u);
  EXPECT_EQ(got.relaxations, 2 * (n - 1));  // 38, where run_generic reads 57
}

TEST(ExplicitCordon, AffineFrontierMatchesGenericOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const std::size_t n = 1 + cp::uniform(seed, 99, 60);
    expect_affine_matches_generic(random_affine_dag(n, seed),
                                  "seed " + std::to_string(seed));
  }
}

TEST(ExplicitCordon, AffineFrontierMatchesGenericOnGeneratedDags) {
  // The dag family's own instances, up to its service-mix size.
  const ce::Solver& solver = ce::builtin_registry().at("dag");
  for (std::uint64_t n : {2, 17, 120, 500}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      ce::Instance inst = solver.generate({n, 0, seed});
      expect_affine_matches_generic(
          inst.as<ce::DagInstance>().build(),
          "n " + std::to_string(n) + " seed " + std::to_string(seed));
    }
  }
}

TEST(ExplicitCordon, PerStateRoundsWithinDepthBounds) {
  // Framework span property: a state with best-decision (perfect) depth p
  // and effective depth d finalizes in round r with p+1 <= r <= d+1 —
  // the cordon can be conservative (sentinels over-block) but never
  // finalizes before the best-decision chain completes.
  for (std::uint64_t seed : {21, 22, 23, 24}) {
    const std::size_t n = 60;
    cc::DpDag dag(n, cc::Objective::kMin);
    dag.set_boundary(0, 0.0);
    std::vector<std::vector<std::pair<std::uint32_t, double>>> in(n);
    for (std::uint32_t i = 1; i < n; ++i) {
      bool any = false;
      for (std::uint32_t j = 0; j < i; ++j) {
        if (cp::uniform_double(seed, i * n + j) < 0.25) {
          double c = 1.0 + cp::uniform_double(seed ^ 9, i * n + j) * 9.0;
          dag.add_edge(j, i, [c](double d) { return d + c; });
          in[i].push_back({j, c});
          any = true;
        }
      }
      if (!any) {
        dag.add_edge(i - 1, i, [](double d) { return d + 1.0; });
        in[i].push_back({i - 1, 1.0});
      }
    }
    auto values = dag.evaluate();
    // Per-state effective depth (all edges effective here) and perfect
    // depth (over best-decision edges only).
    std::vector<std::uint32_t> eff(n, 0), perf(n, 0);
    for (std::uint32_t i = 1; i < n; ++i) {
      std::uint32_t best_j = in[i][0].first;
      double best_v = values[in[i][0].first] + in[i][0].second;
      for (auto [j, c] : in[i]) {
        eff[i] = std::max(eff[i], eff[j] + 1);
        if (values[j] + c < best_v) {
          best_v = values[j] + c;
          best_j = j;
        }
      }
      perf[i] = perf[best_j] + 1;
    }
    auto got = cc::ExplicitCordon(dag).run();
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_GE(got.round_of[i], perf[i] + 1) << "seed=" << seed << " i=" << i;
      ASSERT_LE(got.round_of[i], eff[i] + 1) << "seed=" << seed << " i=" << i;
    }
  }
}

TEST(ExplicitCordon, MaxObjective) {
  cc::DpDag dag(3, cc::Objective::kMax);
  dag.set_boundary(0, 1.0);
  dag.add_edge(0, 1, [](double d) { return d * 2; });
  dag.add_edge(0, 2, [](double d) { return d + 1; });
  dag.add_edge(1, 2, [](double d) { return d + 10; });
  auto got = cc::ExplicitCordon(dag).run();
  EXPECT_DOUBLE_EQ(got.values[2], 12.0);
}

// --------------------------------------------------------------------- monge
TEST(Monge, QuadraticSpanIsConvex) {
  std::vector<double> x(21);
  for (std::size_t i = 0; i <= 20; ++i)
    x[i] = static_cast<double>(i) + cp::uniform_double(3, i);
  auto w = [&](std::size_t j, std::size_t i) {
    double s = x[i] - x[j];
    return 5.0 + s * s;
  };
  EXPECT_TRUE(cc::is_convex_monge_exhaustive(w, 20));
  EXPECT_FALSE(cc::is_concave_monge_exhaustive(w, 20));
  EXPECT_TRUE(cc::is_convex_monge_sampled(w, 20, 500));
}

TEST(Monge, SqrtSpanIsConcave) {
  std::vector<double> x(21);
  for (std::size_t i = 0; i <= 20; ++i)
    x[i] = static_cast<double>(i) + cp::uniform_double(4, i);
  auto w = [&](std::size_t j, std::size_t i) {
    return 1.0 + std::sqrt(x[i] - x[j]);
  };
  EXPECT_TRUE(cc::is_concave_monge_exhaustive(w, 20));
  EXPECT_FALSE(cc::is_convex_monge_exhaustive(w, 20));
}

TEST(Monge, TotalMonotonicityOfConvexTransitionMatrix) {
  std::vector<double> x(16);
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<double>(i * i) * 0.1;
  auto a = [&](std::size_t r, std::size_t c) {
    // rows = states 1..15, cols = decisions 0..14.  Invalid entries are
    // padded with values strictly increasing in j; the increment must
    // survive double rounding (1e18 + j would absorb j entirely).
    std::size_t i = r + 1, j = c;
    if (j >= i) return 1e15 + static_cast<double>(j) * 1e6;
    double s = x[i] - x[j];
    return s * s;
  };
  EXPECT_TRUE(cc::is_convex_totally_monotone(a, 15, 15));
}
