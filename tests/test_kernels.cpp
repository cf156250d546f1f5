// Kernel oracle tests.
//
// Two layers:
//   1. array-level: every kernel in core/kernels.hpp against its scalar
//      reference on randomized inputs — equality is EXACT (same
//      additions, same `<` reductions, no NaNs), so any divergence
//      introduced by an "optimization" of a kernel fails loudly;
//   2. family-level: for all eight DP families plus the explicit DAG,
//      randomized instances solved through the optimized (kernelized,
//      SoA, arena-backed) path against the naive reference oracle via
//      the engine registry — the end-to-end guarantee that the hot-path
//      rewrite changed speed, not answers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/core/cordon.hpp"
#include "src/core/kernels.hpp"
#include "src/engine/instance.hpp"
#include "src/engine/registry.hpp"
#include "src/parallel/random.hpp"

namespace kernels = cordon::core::kernels;
namespace parallel = cordon::parallel;
namespace engine = cordon::engine;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed,
                                   double inf_fraction = 0.0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (inf_fraction > 0 && parallel::uniform_double(seed ^ 0x5bd1u, i) < inf_fraction)
      v[i] = kInf;
    else
      v[i] = parallel::uniform_double(seed, i) * 100.0 - 50.0;
  }
  return v;
}

// Duplicate some values so argmin ties actually occur.
std::vector<double> with_duplicates(std::vector<double> v, std::uint64_t seed) {
  for (std::size_t i = 0; i + 1 < v.size(); ++i)
    if (parallel::uniform(seed, i, 4) == 0)
      v[i + 1] = v[parallel::uniform(seed ^ 0x77u, i, i + 1)];
  return v;
}

// The production argmin kernels over f(i) = a[i] + b[i] on [lo, hi),
// against the scalar oracle run on the same slice.
kernels::ArgMin oracle_first(const std::vector<double>& a,
                             const std::vector<double>& b, std::size_t lo,
                             std::size_t hi) {
  auto ref =
      kernels::scalar::argmin_add(a.data() + lo, b.data() + lo, hi - lo);
  return {ref.value, ref.index + lo};
}

kernels::ArgMin oracle_last(const std::vector<double>& a,
                            const std::vector<double>& b, std::size_t lo,
                            std::size_t hi) {
  auto ref =
      kernels::scalar::argmin_add_last(a.data() + lo, b.data() + lo, hi - lo);
  return {ref.value, ref.index + lo};
}

void expect_kernels_match_oracles(const std::vector<double>& a,
                                  const std::vector<double>& b,
                                  std::size_t lo, std::size_t hi,
                                  const std::string& what) {
  auto sum = [&](std::size_t i) { return a[i] + b[i]; };
  auto first = kernels::argmin_transform(lo, hi, sum);
  auto want_first = oracle_first(a, b, lo, hi);
  EXPECT_EQ(first.value, want_first.value) << what;
  EXPECT_EQ(first.index, want_first.index) << what;
  auto last = kernels::argmin_transform_last(lo, hi, sum);
  auto want_last = oracle_last(a, b, lo, hi);
  EXPECT_EQ(last.value, want_last.value) << what;
  EXPECT_EQ(last.index, want_last.index) << what;
}

}  // namespace

TEST(KernelOracle, ArgminAdd) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    std::size_t n = 1 + parallel::uniform(seed, 0, 700);
    auto a = with_duplicates(random_doubles(n, seed), seed);
    auto b = with_duplicates(random_doubles(n, seed ^ 0xbeef), seed + 7);
    std::size_t lo = parallel::uniform(seed, 4, n);
    const std::string what = "seed " + std::to_string(seed);
    expect_kernels_match_oracles(a, b, 0, n, what);
    expect_kernels_match_oracles(a, b, lo, n,
                                 what + " lo " + std::to_string(lo));
  }
}

TEST(KernelOracle, ArgminAddAllInfinite) {
  // An all-infinite range: leftmost reports lo, rightmost hi - 1, both
  // inside [lo, hi) whatever lo is.
  std::vector<double> a(17, kInf), b(17, 1.0);
  for (std::size_t lo : {0u, 5u, 16u}) {
    expect_kernels_match_oracles(a, b, lo, a.size(),
                                 "lo " + std::to_string(lo));
    auto sum = [&](std::size_t i) { return a[i] + b[i]; };
    EXPECT_EQ(kernels::argmin_transform(lo, a.size(), sum).index, lo);
    EXPECT_EQ(kernels::argmin_transform_last(lo, a.size(), sum).index,
              a.size() - 1);
  }
}

TEST(KernelOracle, ArgminAddLast) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    std::size_t n = 1 + parallel::uniform(seed, 1, 700);
    auto a = with_duplicates(random_doubles(n, seed, /*inf_fraction=*/0.2),
                             seed);
    std::vector<double> b(n, 0.25);
    std::size_t lo = parallel::uniform(seed, 5, n);
    const std::string what = "seed " + std::to_string(seed);
    expect_kernels_match_oracles(a, b, 0, n, what);
    expect_kernels_match_oracles(a, b, lo, n,
                                 what + " lo " + std::to_string(lo));
  }
  // A row that is infinite after its first finite entry, and one whose
  // range starts inside an infinite run.
  std::vector<double> a{3.0, kInf, kInf, kInf}, b(4, 0.0);
  expect_kernels_match_oracles(a, b, 0, 4, "finite head");
  expect_kernels_match_oracles(a, b, 1, 4, "infinite tail");
}

TEST(KernelOracle, ArgminAddStrided) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    std::size_t n = 1 + parallel::uniform(seed, 2, 200);
    std::size_t stride = 1 + parallel::uniform(seed, 3, 9);
    auto a = with_duplicates(random_doubles(n, seed), seed);
    auto b = random_doubles(n * stride + 1, seed ^ 0xfeed);
    auto ref =
        kernels::scalar::argmin_add_strided(a.data(), b.data(), stride, n);
    auto got = kernels::argmin_add_strided(a.data(), b.data(), stride, n);
    EXPECT_EQ(got.value, ref.value) << "seed " << seed;
    EXPECT_EQ(got.index, ref.index) << "seed " << seed;
  }
}

TEST(KernelOracle, Scatter) {
  std::size_t n = 777;
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < n; i += 3) idx.push_back(i);
  std::vector<std::uint32_t> d1(n, 0), d2(n, 0), d3(n, 0);
  kernels::scatter_fill(d1.data(), idx.data(), idx.size(), 9u);
  kernels::scalar::scatter_fill(d2.data(), idx.data(), idx.size(), 9u);
  kernels::parallel_scatter_fill(d3.data(), idx.data(), idx.size(), 9u);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d3);
}

TEST(KernelOracle, ArgminTransformTieDirections) {
  // f has plateaus; first/last variants must bracket them.
  auto f = [](std::size_t i) { return static_cast<double>((i / 5) % 7); };
  auto first = kernels::argmin_transform(10, 200, f);
  auto last = kernels::argmin_transform_last(10, 200, f);
  EXPECT_EQ(first.value, last.value);
  EXPECT_LT(first.index, last.index);
  EXPECT_EQ(f(first.index), first.value);
  EXPECT_EQ(f(last.index), last.value);
  for (std::size_t i = 10; i < first.index; ++i)
    EXPECT_GT(f(i), first.value);
  for (std::size_t i = last.index + 1; i < 200; ++i)
    EXPECT_GT(f(i), last.value);
}

// --- family-level: kernelized solve vs naive reference ----------------------

TEST(FamilyOracle, AllFamiliesMatchReferenceOnRandomInstances) {
  const auto& reg = engine::builtin_registry();
  ASSERT_EQ(reg.size(), 9u);
  for (const auto& solver : reg.solvers()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      std::uint64_t n = 40 + 60 * seed;
      engine::Instance inst = solver->generate({n, 5, seed * 1001});
      engine::SolveResult fast = solver->solve(inst);
      engine::SolveResult ref = solver->solve_reference(inst);
      double tol = 1e-9 * (1.0 + std::abs(ref.objective));
      EXPECT_NEAR(fast.objective, ref.objective, tol)
          << solver->key() << " seed " << seed << " n " << n;
    }
  }
}

TEST(FamilyOracle, ExplicitCordonAffinePathMatchesGenericExactly) {
  const auto& reg = engine::builtin_registry();
  const engine::Solver& dag_solver = reg.at("dag");
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    engine::Instance inst = dag_solver.generate({50 + seed * 37, 0, seed});
    cordon::core::DpDag dag = inst.as<engine::DagInstance>().build();
    ASSERT_TRUE(dag.all_affine());
    cordon::core::ExplicitCordon cordon(dag);
    auto affine = cordon.run_affine();
    auto generic = cordon.run_generic();
    ASSERT_EQ(affine.values.size(), generic.values.size());
    EXPECT_EQ(affine.rounds, generic.rounds) << "seed " << seed;
    // The frontier body reads each edge at most twice; the literal pass
    // rescans unfinalized in-edges every round, so the counts differ.
    EXPECT_LE(affine.relaxations, 2 * dag.num_edges()) << "seed " << seed;
    for (std::size_t i = 0; i < affine.values.size(); ++i) {
      // Same additions in a different evaluation order can differ by
      // one rounding step; the min/max reductions themselves are exact.
      EXPECT_DOUBLE_EQ(affine.values[i], generic.values[i])
          << "state " << i << " seed " << seed;
    }
    EXPECT_EQ(affine.round_of, generic.round_of) << "seed " << seed;
  }
}

TEST(FamilyOracle, MixedDagStaysOnGenericPath) {
  using cordon::core::DpDag;
  DpDag dag(3, cordon::core::Objective::kMin);
  dag.add_affine_edge(0, 1, 2.0);
  dag.add_edge(1, 2, [](double x) { return x * 2.0; });
  EXPECT_FALSE(dag.all_affine());
  dag.set_boundary(0, 1.0);
  auto r = cordon::core::ExplicitCordon(dag).run();
  EXPECT_DOUBLE_EQ(r.values[2], 6.0);
}
