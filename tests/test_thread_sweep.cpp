// Thread-sweep suite: the multi-core claim's correctness half.
//
// The scaling harness (scripts/run_benches.sh + check_scaling.py)
// proves the parallel paths get FASTER with workers; this suite proves
// they never get WRONG: every registered family, solved at pool sizes
// {1, 2, 4, 8}, matches the naive reference oracle; its work counts
// (states, relaxations, rounds) are identical at every pool size and
// across repeated solves; and the adaptive sequential cutoff
// (src/core/cutoff.hpp) and round fusion route instances between paths
// without changing a single answer.  treeglws's forked DFS must equal its
// one-thread DFS bit for bit on every tree shape and pool size.
//
// Ships its own main() (OWN_MAIN): it restarts the scheduler pool
// between cases (detail::shutdown_pool + set_num_workers) and flips
// CORDON_* routing knobs with setenv — both process-global, so this
// binary must own its scheduler lifecycle end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cutoff.hpp"
#include "src/core/telemetry.hpp"
#include "src/engine/registry.hpp"
#include "src/glws/costs.hpp"
#include "src/glws/glws.hpp"
#include "src/parallel/random.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/structures/tree_utils.hpp"
#include "src/treeglws/tree_glws.hpp"
#include "test_util.hpp"

namespace cp = cordon::parallel;
namespace core = cordon::core;
namespace engine = cordon::engine;
namespace telemetry = cordon::telemetry;
namespace structures = cordon::structures;
namespace treeglws = cordon::treeglws;
using cordon::testing::ScopedEnv;

namespace {

// Tears down the live pool and brings up a fresh one with exactly
// `workers` workers.  max_workers() >= 8 by contract, so every size in
// the sweep grid is representable without clamping.
void restart_pool(std::size_t workers) {
  cp::detail::shutdown_pool();
  ASSERT_TRUE(cp::set_num_workers(workers));
  cp::ensure_started();
  ASSERT_EQ(cp::num_workers(), workers);
}

// Forces the parallel algorithm regardless of pool size or instance
// size, so the sweep exercises the real parallel code paths even where
// production routing would (correctly) choose the sequential algorithm.
// The CORDON_LIS_* pair routes both lis and lcs.  treeglws has no knob:
// its engine instances are too small to fork, and the tests below drive
// its forked DFS and the paper's rounds (tree_glws_parallel) directly.
struct ForceParallel {
  ScopedEnv glws_c{"CORDON_GLWS_CUTOFF", "0"};
  ScopedEnv lis_c{"CORDON_LIS_CUTOFF", "0"};
  ScopedEnv gap_c{"CORDON_GAP_CUTOFF", "0"};
  ScopedEnv glws_w{"CORDON_GLWS_MIN_WORKERS", "1"};
  ScopedEnv lis_w{"CORDON_LIS_MIN_WORKERS", "1"};
  ScopedEnv gap_w{"CORDON_GAP_MIN_WORKERS", "1"};
};

// The exact-count contract: states, relaxations and rounds are a
// property of the instance, never of the schedule that solved it.
void expect_same_counts(const core::DpStats& got, const core::DpStats& want,
                        const std::string& what) {
  EXPECT_EQ(got.states, want.states) << what;
  EXPECT_EQ(got.relaxations, want.relaxations) << what;
  EXPECT_EQ(got.rounds, want.rounds) << what;
}

}  // namespace

TEST(ThreadSweep, AllFamiliesMatchReferenceAtEveryPoolSize) {
  ForceParallel force;
  const auto& reg = engine::builtin_registry();
  ASSERT_EQ(reg.size(), 9u);
  // Work counts at the first pool size, per (family, seed); every later
  // pool size solves the same instance and must reproduce them exactly.
  std::map<std::pair<std::string, std::uint64_t>, core::DpStats> first;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    restart_pool(workers);
    for (const auto& solver : reg.solvers()) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        std::uint64_t n = 93 + 90 * seed;
        engine::Instance inst = solver->generate({n, 5, seed * 77});
        engine::SolveResult fast = solver->solve(inst);
        engine::SolveResult ref = solver->solve_reference(inst);
        const std::string what = std::string(solver->key()) +
                                 " workers=" + std::to_string(workers) +
                                 " seed=" + std::to_string(seed);
        double tol = 1e-9 * (1.0 + std::abs(ref.objective));
        EXPECT_NEAR(fast.objective, ref.objective, tol) << what;
        // A treeglws instance of n <= 363 nodes has no subtree big enough
        // to fork at, so its DFS reports the sequential path.
        EXPECT_EQ(fast.path, solver->key() == "treeglws"
                                 ? core::SolvePath::kSequentialCutoff
                                 : core::SolvePath::kParallel)
            << solver->key() << ": ForceParallel must defeat routing";
        auto [it, inserted] =
            first.try_emplace({std::string(solver->key()), seed}, fast.stats);
        if (!inserted) expect_same_counts(fast.stats, it->second, what);
      }
    }
  }
}

TEST(ThreadSweep, RepeatedParallelSolvesAreDeterministic) {
  ForceParallel force;
  restart_pool(8);
  const auto& reg = engine::builtin_registry();
  for (const auto& solver : reg.solvers()) {
    engine::Instance inst = solver->generate({257, 6, 99});
    engine::SolveResult first = solver->solve(inst);
    for (int rep = 0; rep < 3; ++rep) {
      engine::SolveResult again = solver->solve(inst);
      // Exact equality: scheduling order must not leak into answers
      // (atomic min-CAS relaxation is order-independent by design) or
      // into the work counts.
      EXPECT_EQ(first.objective, again.objective)
          << solver->key() << " rep=" << rep;
      expect_same_counts(again.stats, first.stats,
                         std::string(solver->key()) +
                             " rep=" + std::to_string(rep));
    }
  }
}

TEST(ThreadSweep, CutoffRoutesByInstanceSizeWithIdenticalAnswers) {
  restart_pool(8);
  const auto& reg = engine::builtin_registry();
  // The four families with an adaptive size cutoff; oat/obst/kglws/dag
  // have no *_auto routing, and treeglws forks by subtree size.
  for (const char* key : {"glws", "lis", "lcs", "gap"}) {
    const engine::Solver& solver = reg.at(key);
    engine::Instance inst = solver.generate({300, 5, 11});
    engine::SolveResult seq_routed, par_routed;
    {
      // Huge threshold: every instance is "small", sequential path.
      ScopedEnv glws{"CORDON_GLWS_CUTOFF", "1000000000"};
      ScopedEnv lis{"CORDON_LIS_CUTOFF", "1000000000"};
      ScopedEnv gap{"CORDON_GAP_CUTOFF", "1000000000"};
      auto base = telemetry::snapshot();
      seq_routed = solver.solve(inst);
      EXPECT_EQ(seq_routed.path, core::SolvePath::kSequentialCutoff) << key;
      // The routing decision is visible in telemetry, not just the
      // result struct.
      EXPECT_GE(telemetry::snapshot().delta_since(base).counter(
                    telemetry::Counter::kSolverSeqCutoffs),
                1u)
          << key;
    }
    {
      ForceParallel force;
      par_routed = solver.solve(inst);
      EXPECT_EQ(par_routed.path, core::SolvePath::kParallel) << key;
    }
    double tol = 1e-9 * (1.0 + std::abs(seq_routed.objective));
    EXPECT_NEAR(seq_routed.objective, par_routed.objective, tol)
        << key << ": both routes must agree";
    engine::SolveResult ref = solver.solve_reference(inst);
    EXPECT_NEAR(seq_routed.objective, ref.objective,
                1e-9 * (1.0 + std::abs(ref.objective)))
        << key;
  }
}

TEST(ThreadSweep, CutoffStraddleBothSidesOfThreshold) {
  restart_pool(8);
  const auto& reg = engine::builtin_registry();
  const engine::Solver& solver = reg.at("glws");
  // Pin the glws threshold between the two instance sizes: n=128 must
  // route sequentially, n=512 must go parallel, and the answers on both
  // sides must match the oracle.
  ScopedEnv cutoff{"CORDON_GLWS_CUTOFF", "256"};
  ScopedEnv min_workers{"CORDON_GLWS_MIN_WORKERS", "1"};
  struct Case {
    std::uint64_t n;
    core::SolvePath want;
  } cases[] = {{128, core::SolvePath::kSequentialCutoff},
               {512, core::SolvePath::kParallel}};
  for (const Case& c : cases) {
    engine::Instance inst = solver.generate({c.n, 5, 23});
    engine::SolveResult fast = solver.solve(inst);
    EXPECT_EQ(fast.path, c.want) << "n=" << c.n;
    engine::SolveResult ref = solver.solve_reference(inst);
    EXPECT_NEAR(fast.objective, ref.objective,
                1e-9 * (1.0 + std::abs(ref.objective)))
        << "n=" << c.n;
  }
}

TEST(ThreadSweep, RoundFusionDoesNotChangeAnswers) {
  ForceParallel force;
  restart_pool(8);

  // glws's engine generator emits single-round instances (the whole
  // envelope resolves in one cordon), so drive the high-round/low-work
  // regime fusion targets directly: a cheap post-office opening cost
  // forces a long best-decision chain, i.e. many light rounds.
  {
    namespace glws = cordon::glws;
    const std::size_t n = 3000;
    auto x = std::make_shared<std::vector<double>>(n + 1, 0.0);
    for (std::size_t i = 1; i <= n; ++i)
      (*x)[i] = (*x)[i - 1] + 0.5 + cp::uniform_double(7, i);
    glws::CostFn w = glws::post_office_cost(x, 20.0);
    glws::EFn e = glws::identity_e();
    glws::GlwsResult fused, unfused;
    {
      ScopedEnv fuse{"CORDON_FUSE_RELAX", "0"};  // fusion off
      unfused = glws::glws_parallel(n, 0.0, w, e, glws::Shape::kConvex);
    }
    ASSERT_GT(unfused.stats.rounds, 1u) << "need a multi-round instance";
    {
      ScopedEnv fuse{"CORDON_FUSE_RELAX", "1000000000"};
      auto base = telemetry::snapshot();
      fused = glws::glws_parallel(n, 0.0, w, e, glws::Shape::kConvex);
      EXPECT_GE(telemetry::snapshot().delta_since(base).counter(
                    telemetry::Counter::kSolverFusedRounds),
                1u);
    }
    EXPECT_NEAR(fused.d[n], unfused.d[n],
                1e-9 * (1.0 + std::abs(unfused.d[n])));
  }

  const auto& reg = engine::builtin_registry();
  for (const char* key : {"lis", "lcs", "gap"}) {
    const engine::Solver& solver = reg.at(key);
    engine::Instance inst = solver.generate({400, 7, 31});
    engine::SolveResult fused, unfused;
    {
      ScopedEnv fuse{"CORDON_FUSE_RELAX", "0"};  // fusion off
      unfused = solver.solve(inst);
    }
    {
      // Threshold above any round's relaxation count: every round after
      // the first runs inline.  Same answers, counter visibly bumped.
      ScopedEnv fuse{"CORDON_FUSE_RELAX", "1000000000"};
      auto base = telemetry::snapshot();
      fused = solver.solve(inst);
      EXPECT_GE(telemetry::snapshot().delta_since(base).counter(
                    telemetry::Counter::kSolverFusedRounds),
                1u)
          << key;
    }
    EXPECT_EQ(fused.path, core::SolvePath::kParallel) << key;
    double tol = 1e-9 * (1.0 + std::abs(unfused.objective));
    EXPECT_NEAR(fused.objective, unfused.objective, tol) << key;
  }
}

namespace {

using Parents = std::vector<std::uint32_t>;
constexpr std::uint32_t kRoot = structures::kNoNode;

// Random recursive tree: each node hangs off a uniform earlier node.
Parents random_parents(std::size_t n, std::uint64_t seed) {
  Parents p(n, kRoot);
  for (std::uint32_t v = 1; v < n; ++v)
    p[v] = static_cast<std::uint32_t>(cp::uniform(seed, v, v));
  return p;
}

// The same tree numbered backwards, so every parent follows its children.
Parents reversed(const Parents& p) {
  const auto n = static_cast<std::uint32_t>(p.size());
  Parents q(n, kRoot);
  for (std::uint32_t v = 0; v < n; ++v)
    q[n - 1 - v] = p[v] == kRoot ? kRoot : n - 1 - p[v];
  return q;
}

// Subtree sizes counted without RootedTree's passes: deepest nodes first.
std::vector<std::uint32_t> naive_sizes(const structures::RootedTree& t) {
  std::vector<std::uint32_t> order(t.size());
  for (std::uint32_t v = 0; v < t.size(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return t.depth[a] > t.depth[b];
  });
  std::vector<std::uint32_t> size(t.size(), 1);
  for (std::uint32_t v : order)
    if (t.parent[v] != kRoot) size[t.parent[v]] += size[v];
  return size;
}

// A fork point: two or more children of at least kForkGrain nodes.
bool has_fork_point(const structures::RootedTree& t,
                    const std::vector<std::uint32_t>& size) {
  for (std::uint32_t v = 0; v < t.size(); ++v) {
    int heavy = 0;
    for (std::uint32_t c : t.children[v])
      heavy += size[c] >= treeglws::kForkGrain ? 1 : 0;
    if (heavy >= 2) return true;
  }
  return false;
}

}  // namespace

TEST(ThreadSweep, TreeGlwsParallelMatchesNaiveAtEveryPoolSize) {
  // No production route runs the paper's rounds with persistent
  // envelopes, so sweep them directly: every pool size matches the
  // ancestor-scan oracle and repeats the first size's work counts.
  namespace glws = cordon::glws;
  const glws::CostFn w = glws::SpanCost{glws::SpanCost::Kind::kQuadratic,
                                        40.0, 0.5};
  const glws::EFn e = glws::identity_e();
  struct Shape {
    std::string name;
    Parents parents;
  };
  Parents binary(1023, kRoot), path(400, kRoot);
  for (std::uint32_t v = 1; v < binary.size(); ++v) binary[v] = (v - 1) / 2;
  for (std::uint32_t v = 1; v < path.size(); ++v) path[v] = v - 1;
  const std::vector<Shape> shapes{{"random1", random_parents(1000, 1)},
                                  {"random2", random_parents(3000, 2)},
                                  {"binary", binary},
                                  {"path", path}};
  std::map<std::string, core::DpStats> first;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    restart_pool(workers);
    for (const Shape& s : shapes) {
      structures::RootedTree t(s.parents);
      const treeglws::TreeGlwsResult ref =
          treeglws::tree_glws_naive(t, 0, w, e);
      for (int rep = 0; rep < 2; ++rep) {
        const treeglws::TreeGlwsResult got =
            treeglws::tree_glws_parallel(t, 0, w, e);
        const std::string what = s.name + " workers=" +
                                 std::to_string(workers) +
                                 " rep=" + std::to_string(rep);
        ASSERT_EQ(got.d.size(), ref.d.size()) << what;
        for (std::size_t v = 0; v < t.size(); ++v)
          ASSERT_NEAR(got.d[v], ref.d[v], 1e-9 * (1.0 + std::abs(ref.d[v])))
              << what << " v=" << v;
        auto [it, inserted] = first.try_emplace(s.name, got.stats);
        if (!inserted) expect_same_counts(got.stats, it->second, what);
      }
    }
  }
}

TEST(ThreadSweep, TreeGlwsForkedDfsMatchesSequentialAtEveryPoolSize) {
  // The production DFS forks at heavy subtrees; every node still reads
  // exactly its root path's decisions, so D, best and the work counts
  // equal the one-thread DFS's bit for bit, whatever ran in parallel.
  namespace glws = cordon::glws;
  const glws::CostFn w = glws::SpanCost{glws::SpanCost::Kind::kQuadratic,
                                        500.0, 0.05};
  const glws::EFn e = glws::identity_e();
  const std::size_t n = 50000;
  Parents binary(n, kRoot), caterpillar(n, kRoot), spine(n, kRoot),
      path(n, kRoot), star(n, kRoot);
  for (std::uint32_t v = 1; v < n; ++v) {
    binary[v] = (v - 1) / 2;
    path[v] = v - 1;
    star[v] = 0;
    // A path of n / 2 nodes, each with one leaf.
    caterpillar[v] = v < n / 2 ? v - 1 : v - n / 2;
  }
  // A spine of 8 nodes, each heading a path of n / 8 nodes: every spine
  // node but the last is a fork point, each nested in the one above.
  const std::uint32_t block = n / 8;
  for (std::uint32_t v = 1; v < n; ++v)
    spine[v] = v % block == 0 ? v - block : v - 1;
  struct Shape {
    std::string name;
    Parents parents;
  };
  const std::vector<Shape> shapes{
      {"random", random_parents(n, 3)}, {"binary", binary},
      {"caterpillar", caterpillar},     {"spine", spine},
      {"path", path},                   {"star", star},
      {"reversed-random", reversed(random_parents(n, 5))}};
  std::vector<structures::RootedTree> trees;
  std::vector<treeglws::TreeGlwsResult> want;
  std::vector<bool> forks;
  for (const Shape& s : shapes) {
    // Both numberings: RootedTree sums sizes by ids when parents come
    // first and by depths otherwise.
    for (const Parents& p : {s.parents, reversed(s.parents)}) {
      structures::RootedTree t(p);
      EXPECT_EQ(t.subtree_size, naive_sizes(t)) << s.name;
    }
    trees.emplace_back(s.parents);
    forks.push_back(has_fork_point(trees.back(), trees.back().subtree_size));
    want.push_back(treeglws::tree_glws_sequential(trees.back(), 0, w, e));
  }
  // Fork points exist exactly where the shape promises.
  EXPECT_EQ(forks, (std::vector<bool>{true, true, false, true, false, false,
                                      true}));
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    restart_pool(workers);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const std::string what =
          shapes[i].name + " workers=" + std::to_string(workers);
      auto base = telemetry::snapshot();
      const treeglws::TreeGlwsResult got =
          treeglws::tree_glws_auto(trees[i], 0, w, e);
      EXPECT_EQ(got.d, want[i].d) << what;
      EXPECT_EQ(got.best, want[i].best) << what;
      expect_same_counts(got.stats, want[i].stats, what);
      const bool parallel = workers >= 2 && forks[i];
      EXPECT_EQ(got.path, parallel ? core::SolvePath::kParallel
                                   : core::SolvePath::kSequentialCutoff)
          << what;
      EXPECT_EQ(telemetry::snapshot().delta_since(base).counter(
                    telemetry::Counter::kSolverSeqCutoffs),
                parallel ? 0u : 1u)
          << what;
    }
  }
}

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  int rc = RUN_ALL_TESTS();
  // Leave no pool behind: workers joined before static teardown.
  cordon::parallel::detail::shutdown_pool();
  return rc;
}
