// GLWS: naive / Γlws / parallel Alg. 1 agreement for convex and concave
// costs, Monge validation of the cost families, and Thm 4.1 round
// structure on the post-office workload.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/core/monge.hpp"
#include "src/glws/costs.hpp"
#include "src/glws/glws.hpp"
#include "src/parallel/random.hpp"
#include "test_util.hpp"

using namespace cordon::glws;
namespace cp = cordon::parallel;
namespace ct = cordon::testing;

namespace {

void expect_same(const GlwsResult& a, const GlwsResult& b, double tol = 1e-7) {
  ASSERT_EQ(a.d.size(), b.d.size());
  for (std::size_t i = 0; i < a.d.size(); ++i)
    ASSERT_NEAR(a.d[i], b.d[i], tol) << "state " << i;
}

}  // namespace

struct GlwsCase {
  std::size_t n;
  std::uint64_t seed;
};

class ConvexSweep : public ::testing::TestWithParam<GlwsCase> {};

TEST_P(ConvexSweep, NaiveSeqParallelAgree) {
  auto [n, seed] = GetParam();
  CostFn w = ct::random_convex_cost(n, seed);
  EFn e = identity_e();
  auto nv = glws_naive(n, 0.0, w, e);
  auto sv = glws_sequential(n, 0.0, w, e, Shape::kConvex);
  auto pv = glws_parallel(n, 0.0, w, e, Shape::kConvex);
  expect_same(nv, sv);
  expect_same(nv, pv);
}

INSTANTIATE_TEST_SUITE_P(Cases, ConvexSweep,
                         ::testing::Values(GlwsCase{1, 1}, GlwsCase{2, 2},
                                           GlwsCase{3, 3}, GlwsCase{10, 4},
                                           GlwsCase{50, 5}, GlwsCase{100, 6},
                                           GlwsCase{500, 7}, GlwsCase{1000, 8},
                                           GlwsCase{2000, 9}));

class ConcaveSweep : public ::testing::TestWithParam<GlwsCase> {};

TEST_P(ConcaveSweep, NaiveSeqParallelAgree) {
  auto [n, seed] = GetParam();
  CostFn w = ct::random_concave_cost(n, seed);
  EFn e = identity_e();
  auto nv = glws_naive(n, 0.0, w, e);
  auto sv = glws_sequential(n, 0.0, w, e, Shape::kConcave);
  auto pv = glws_parallel(n, 0.0, w, e, Shape::kConcave);
  expect_same(nv, sv);
  expect_same(nv, pv);
}

INSTANTIATE_TEST_SUITE_P(Cases, ConcaveSweep,
                         ::testing::Values(GlwsCase{1, 11}, GlwsCase{2, 12},
                                           GlwsCase{3, 13}, GlwsCase{10, 14},
                                           GlwsCase{50, 15}, GlwsCase{100, 16},
                                           GlwsCase{500, 17},
                                           GlwsCase{1000, 18},
                                           GlwsCase{2000, 19}));

TEST(GlwsCosts, WithCostFindsTheSpanCostACostFnHolds) {
  auto sees_span = [](const auto& cost) {
    return std::is_same_v<std::decay_t<decltype(cost)>, SpanCost>;
  };
  const SpanCost span{SpanCost::Kind::kQuadratic, 2.0, 0.5};
  EXPECT_TRUE(with_cost(CostFn(span), sees_span));
  EXPECT_FALSE(with_cost(ct::plain_span_cost(span), sees_span));
  EXPECT_EQ(CostFn(span)(3, 7), ct::plain_span_cost(span)(3, 7));
}

class SpanCostSweep : public ::testing::TestWithParam<SpanCost::Kind> {};

TEST_P(SpanCostSweep, InlineAndTypeErasedSequentialAgree) {
  // glws_sequential calls a CostFn's SpanCost inline and a plain lambda
  // through the CostFn: same D, decisions and work, bit for bit.
  const SpanCost cost{GetParam(), 3.0, 0.75};
  const Shape shape =
      GetParam() == SpanCost::Kind::kLog1p ? Shape::kConcave : Shape::kConvex;
  EFn e = [](double d, std::size_t j) { return d + 0.125 * double(j % 7); };
  for (std::size_t n : {1, 2, 10, 500, 3000}) {
    SCOPED_TRACE(n);
    auto inl = glws_sequential(n, 0.0, cost, e, shape);
    auto erased = glws_sequential(n, 0.0, ct::plain_span_cost(cost), e, shape);
    EXPECT_EQ(inl.d, erased.d);
    EXPECT_EQ(inl.best, erased.best);
    ct::expect_same_stats(inl.stats, erased.stats);
    if (n <= 500) expect_same(glws_naive(n, 0.0, cost, e), inl);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, SpanCostSweep,
                         ::testing::ValuesIn(ct::kSpanKinds));

TEST(GlwsCosts, FamiliesSatisfyTheirMongeConditions) {
  auto x = ct::random_positions(18, 42);
  CostFn po = post_office_cost(x, 10.0);
  EXPECT_TRUE(cordon::core::is_convex_monge_exhaustive(
      [&](std::size_t j, std::size_t i) { return po(j, i); }, 17));
  CostFn sq = sqrt_span_cost(x, 2.0);
  EXPECT_TRUE(cordon::core::is_concave_monge_exhaustive(
      [&](std::size_t j, std::size_t i) { return sq(j, i); }, 17));
  CostFn cv = ct::random_convex_cost(18, 4242);
  EXPECT_TRUE(cordon::core::is_convex_monge_exhaustive(
      [&](std::size_t j, std::size_t i) { return cv(j, i); }, 17));
  CostFn cc = ct::random_concave_cost(18, 4243);
  EXPECT_TRUE(cordon::core::is_concave_monge_exhaustive(
      [&](std::size_t j, std::size_t i) { return cc(j, i); }, 17));
}

TEST(GlwsPostOffice, RoundsEqualOfficeCountAndCostsDecreaseWithK) {
  // Thm 4.1: rounds == number of best decisions chained in the solution
  // == number of post offices.  Count offices by backtracking best[].
  const std::size_t n = 2000;
  auto x = ct::random_positions(n, 99);
  for (double open : {10.0, 1000.0, 100000.0}) {
    CostFn w = post_office_cost(x, open);
    auto pv = glws_parallel(n, 0.0, w, identity_e(), Shape::kConvex);
    auto sv = glws_sequential(n, 0.0, w, identity_e(), Shape::kConvex);
    ASSERT_NEAR(pv.d[n], sv.d[n], 1e-6);
    std::size_t offices = 0;
    for (std::size_t i = n; i != 0; i = pv.best[i]) ++offices;
    EXPECT_EQ(pv.stats.rounds, offices) << "open=" << open;
  }
}

TEST(GlwsParallel, WorkIsNearLinear) {
  // O(n log n) relaxations: assert the constant is sane (<< n^2).
  const std::size_t n = 4000;
  CostFn w = ct::random_convex_cost(n, 31);
  auto pv = glws_parallel(n, 0.0, w, identity_e(), Shape::kConvex);
  double logn = std::log2(static_cast<double>(n));
  EXPECT_LT(pv.stats.relaxations,
            static_cast<std::uint64_t>(40.0 * n * logn));
}

TEST(GlwsGeneralizedE, NonIdentityE) {
  // E[j] = D[j] * 0.5 + j: exercises the generalized form.
  const std::size_t n = 300;
  CostFn w = ct::random_convex_cost(n, 71);
  EFn e = [](double d, std::size_t j) {
    return d * 0.5 + static_cast<double>(j) * 0.01;
  };
  auto nv = glws_naive(n, 1.0, w, e);
  auto sv = glws_sequential(n, 1.0, w, e, Shape::kConvex);
  auto pv = glws_parallel(n, 1.0, w, e, Shape::kConvex);
  expect_same(nv, sv);
  expect_same(nv, pv);
}

TEST(GlwsGeneralizedE, ConcaveWithNonIdentityE) {
  // The generalized E matters for OAT's LWS reduction; exercise it on
  // the concave path (merge of Alg. 2) as well.
  const std::size_t n = 400;
  CostFn w = ct::random_concave_cost(n, 91);
  EFn e = [](double d, std::size_t j) {
    return d * 0.8 + static_cast<double>(j % 5) * 0.1;
  };
  auto nv = glws_naive(n, 2.0, w, e);
  auto sv = glws_sequential(n, 2.0, w, e, Shape::kConcave);
  auto pv = glws_parallel(n, 2.0, w, e, Shape::kConcave);
  expect_same(nv, sv);
  expect_same(nv, pv);
}

TEST(GlwsLinearCost, DegenerateTiesStillCorrect) {
  // Linear span cost makes many decisions tie — stresses tie-breaking.
  const std::size_t n = 400;
  auto x = ct::random_positions(n, 55);
  CostFn w = post_office_linear_cost(x, 7.0);
  auto nv = glws_naive(n, 0.0, w, identity_e());
  auto sv = glws_sequential(n, 0.0, w, identity_e(), Shape::kConvex);
  auto pv = glws_parallel(n, 0.0, w, identity_e(), Shape::kConvex);
  expect_same(nv, sv);
  expect_same(nv, pv);
}

TEST(GlwsSequential, StatsCountStatesOnce) {
  const std::size_t n = 500;
  CostFn w = ct::random_convex_cost(n, 81);
  auto sv = glws_sequential(n, 0.0, w, identity_e(), Shape::kConvex);
  EXPECT_EQ(sv.stats.states, n);
}
