// k-GLWS: naive / SMAWK / D&C agreement, SMAWK vs brute row minima, and
// the layer-per-round structure (Sec. 5.4).
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "src/glws/costs.hpp"
#include "src/kglws/kglws.hpp"
#include "src/kglws/smawk.hpp"
#include "src/parallel/random.hpp"
#include "test_util.hpp"

using namespace cordon::kglws;
namespace cp = cordon::parallel;
namespace ct = cordon::testing;

TEST(Smawk, MatchesBruteForceOnTotallyMonotoneMatrices) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::size_t rows = 1 + cp::uniform(seed, 0, 60);
    std::size_t cols = 1 + cp::uniform(seed, 1, 60);
    // Convex totally monotone family: M[r][c] = (x_r - y_c)^2 with both
    // sequences increasing.
    std::vector<double> x(rows), y(cols);
    for (std::size_t r = 0; r < rows; ++r)
      x[r] = r * 2.0 + cp::uniform_double(seed ^ 1, r);
    for (std::size_t c = 0; c < cols; ++c)
      y[c] = c * 2.0 + cp::uniform_double(seed ^ 2, c);
    auto value = [&](std::size_t r, std::size_t c) {
      double d = x[r] - y[c];
      return d * d;
    };
    auto got = smawk_row_minima(rows, cols, value);
    for (std::size_t r = 0; r < rows; ++r) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t expect = 0;
      for (std::size_t c = 0; c < cols; ++c)
        if (value(r, c) < best) {
          best = value(r, c);
          expect = c;
        }
      ASSERT_DOUBLE_EQ(value(r, got[r]), best) << "seed " << seed << " r " << r;
      (void)expect;
    }
  }
}

struct KglwsCase {
  std::size_t n, k;
  std::uint64_t seed;
};

class KglwsSweep : public ::testing::TestWithParam<KglwsCase> {};

TEST_P(KglwsSweep, ThreeEnginesAgree) {
  auto [n, k, seed] = GetParam();
  auto x = std::vector<double>(n + 1, 0.0);
  for (std::size_t i = 1; i <= n; ++i)
    (*&x)[i] = x[i - 1] + 0.5 + cp::uniform_double(seed, i) * 4.0;
  auto cost = cordon::glws::squared_distance_cost(x);
  cordon::glws::CostFn w = [cost](std::size_t j, std::size_t i) {
    return cost(j, i);
  };
  auto nv = kglws_naive(n, k, w);
  auto sv = kglws_smawk(n, k, w);
  auto dv = kglws_dc(n, k, w);
  ASSERT_NEAR(nv.total, sv.total, 1e-7);
  ASSERT_NEAR(nv.total, dv.total, 1e-7);
  // Per-state agreement on the final layer.
  for (std::size_t i = 0; i <= n; ++i) {
    if (std::isinf(nv.d[i])) {
      ASSERT_TRUE(std::isinf(dv.d[i])) << i;
    } else {
      ASSERT_NEAR(nv.d[i], dv.d[i], 1e-7) << i;
      ASSERT_NEAR(nv.d[i], sv.d[i], 1e-7) << i;
    }
  }
  // Cordon view: exactly k frontier rounds.
  EXPECT_EQ(dv.stats.rounds, k);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KglwsSweep,
    ::testing::Values(KglwsCase{1, 1, 1}, KglwsCase{5, 2, 2},
                      KglwsCase{10, 3, 3}, KglwsCase{50, 1, 4},
                      KglwsCase{50, 7, 5}, KglwsCase{120, 4, 6},
                      KglwsCase{200, 10, 7}, KglwsCase{300, 3, 8}));

class KglwsSpanCostSweep
    : public ::testing::TestWithParam<cordon::glws::SpanCost::Kind> {};

TEST_P(KglwsSpanCostSweep, InlineAndTypeErasedDcAgree) {
  // kglws_dc's layer recursion calls a CostFn's SpanCost inline and a
  // plain lambda through the CostFn: bit for bit the same layers and
  // work.  (log1p is concave, which the engine rejects for kglws; the
  // two instantiations must still agree on it.)
  const cordon::glws::SpanCost cost{GetParam(), 40.0, 0.5};
  for (auto [n, k] : {std::pair<std::size_t, std::size_t>{1, 1},
                      {60, 4}, {3000, 9}}) {
    SCOPED_TRACE(n);
    auto inl = kglws_dc(n, k, cost);
    auto erased = kglws_dc(n, k, ct::plain_span_cost(cost));
    EXPECT_EQ(inl.d, erased.d);
    EXPECT_EQ(inl.cut, erased.cut);
    EXPECT_EQ(inl.total, erased.total);
    ct::expect_same_stats(inl.stats, erased.stats);
    if (GetParam() != cordon::glws::SpanCost::Kind::kLog1p && n <= 60)
      ct::expect_objective_near(inl.total, kglws_naive(n, k, cost).total,
                                "naive");
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, KglwsSpanCostSweep,
                         ::testing::ValuesIn(ct::kSpanKinds));

TEST(Kglws, BacktrackGivesValidClustering) {
  const std::size_t n = 100, k = 5;
  auto x = std::vector<double>(n + 1, 0.0);
  for (std::size_t i = 1; i <= n; ++i)
    x[i] = x[i - 1] + 1.0 + cp::uniform_double(17, i) * 2.0;
  auto cost = cordon::glws::squared_distance_cost(x);
  cordon::glws::CostFn w = [cost](std::size_t j, std::size_t i) {
    return cost(j, i);
  };
  auto cuts = kglws_backtrack(n, k, w);
  ASSERT_EQ(cuts.size(), k + 1);
  EXPECT_EQ(cuts.front(), 0u);
  EXPECT_EQ(cuts.back(), n);
  double total = 0;
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    ASSERT_LT(cuts[c], cuts[c + 1]);
    total += w(cuts[c], cuts[c + 1]);
  }
  EXPECT_NEAR(total, kglws_dc(n, k, w).total, 1e-7);
}

TEST(Kglws, SmawkWorkIsLinearPerLayer) {
  const std::size_t n = 2000, k = 3;
  auto x = std::vector<double>(n + 1, 0.0);
  for (std::size_t i = 1; i <= n; ++i) x[i] = x[i - 1] + 1.0;
  auto cost = cordon::glws::squared_distance_cost(x);
  cordon::glws::CostFn w = [cost](std::size_t j, std::size_t i) {
    return cost(j, i);
  };
  auto sv = kglws_smawk(n, k, w);
  // SMAWK: O(n) evaluations per layer (generous constant 16).
  EXPECT_LT(sv.stats.relaxations, 16 * k * n);
}

TEST(Kglws, MoreClustersNeverIncreaseCost) {
  const std::size_t n = 80;
  auto x = std::vector<double>(n + 1, 0.0);
  for (std::size_t i = 1; i <= n; ++i)
    x[i] = x[i - 1] + 0.3 + cp::uniform_double(23, i);
  auto cost = cordon::glws::squared_distance_cost(x);
  cordon::glws::CostFn w = [cost](std::size_t j, std::size_t i) {
    return cost(j, i);
  };
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= 10; ++k) {
    double total = kglws_dc(n, k, w).total;
    EXPECT_LE(total, prev + 1e-9) << k;
    prev = total;
  }
}
