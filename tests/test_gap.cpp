// GAP edit distance: naive vs Γgap vs parallel cordon, convex and
// concave costs, plus structural properties of the staircase rounds.
#include <gtest/gtest.h>

#include <vector>

#include "src/gap/gap.hpp"
#include "src/parallel/random.hpp"
#include "test_util.hpp"

using namespace cordon::gap;
using cordon::glws::Shape;
namespace cp = cordon::parallel;
namespace ct = cordon::testing;

namespace {

std::vector<std::uint32_t> random_string(std::size_t n, std::uint64_t seed,
                                         std::uint32_t alphabet) {
  std::vector<std::uint32_t> s(n);
  for (std::size_t i = 0; i < n; ++i)
    s[i] = static_cast<std::uint32_t>(cp::uniform(seed, i, alphabet));
  return s;
}

// gap_seq on the builders' SpanCosts (called inline) and on the same
// formulas as plain lambdas (called through CostFn): bit for bit equal.
void expect_inline_matches_type_erased(const std::vector<std::uint32_t>& a,
                                       const std::vector<std::uint32_t>& b,
                                       const cordon::glws::SpanCost& w1,
                                       const cordon::glws::SpanCost& w2,
                                       Shape shape, const GapResult& inl) {
  auto erased = gap_seq(a, b, ct::plain_span_cost(w1),
                        ct::plain_span_cost(w2), shape);
  EXPECT_EQ(inl.d, erased.d);
  ct::expect_same_stats(inl.stats, erased.stats);
}

void expect_same_table(const GapResult& a, const GapResult& b,
                       double tol = 1e-7) {
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.cols, b.cols);
  for (std::size_t i = 0; i < a.rows; ++i)
    for (std::size_t j = 0; j < a.cols; ++j)
      ASSERT_NEAR(a.at(i, j), b.at(i, j), tol) << "(" << i << "," << j << ")";
}

}  // namespace

struct GapCase {
  std::size_t n, m;
  std::uint32_t alphabet;
  std::uint64_t seed;
};

class GapConvexSweep : public ::testing::TestWithParam<GapCase> {};

TEST_P(GapConvexSweep, NaiveSeqParallelAgree) {
  auto [n, m, alphabet, seed] = GetParam();
  auto a = random_string(n, seed, alphabet);
  auto b = random_string(m, seed ^ 0xfeed, alphabet);
  auto w1 = quadratic_gap_cost(2.0, 0.25);
  auto w2 = quadratic_gap_cost(3.0, 0.20);
  auto nv = gap_naive(a, b, w1, w2);
  auto sv = gap_seq(a, b, w1, w2, Shape::kConvex);
  expect_inline_matches_type_erased(a, b, w1, w2, Shape::kConvex, sv);
  auto pv = gap_parallel(a, b, w1, w2, Shape::kConvex);
  expect_same_table(nv, sv);
  expect_same_table(nv, pv);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GapConvexSweep,
    ::testing::Values(GapCase{0, 0, 2, 1}, GapCase{1, 0, 2, 2},
                      GapCase{0, 3, 2, 3}, GapCase{1, 1, 1, 4},
                      GapCase{5, 5, 2, 5}, GapCase{10, 8, 3, 6},
                      GapCase{20, 20, 4, 7}, GapCase{40, 30, 2, 8},
                      GapCase{60, 60, 6, 9}, GapCase{60, 60, 2, 10}));

class GapAffineSweep : public ::testing::TestWithParam<GapCase> {};

TEST_P(GapAffineSweep, AffineCostsAgree) {
  auto [n, m, alphabet, seed] = GetParam();
  auto a = random_string(n, seed, alphabet);
  auto b = random_string(m, seed ^ 0xabcd, alphabet);
  auto w1 = affine_gap_cost(4.0, 1.0);
  auto w2 = affine_gap_cost(4.0, 1.5);
  auto nv = gap_naive(a, b, w1, w2);
  auto sv = gap_seq(a, b, w1, w2, Shape::kConvex);
  expect_inline_matches_type_erased(a, b, w1, w2, Shape::kConvex, sv);
  auto pv = gap_parallel(a, b, w1, w2, Shape::kConvex);
  expect_same_table(nv, sv);
  expect_same_table(nv, pv);
}

INSTANTIATE_TEST_SUITE_P(Cases, GapAffineSweep,
                         ::testing::Values(GapCase{15, 15, 2, 21},
                                           GapCase{30, 25, 4, 22},
                                           GapCase{50, 50, 3, 23}));

class GapConcaveSweep : public ::testing::TestWithParam<GapCase> {};

TEST_P(GapConcaveSweep, LogCostsAgree) {
  auto [n, m, alphabet, seed] = GetParam();
  auto a = random_string(n, seed, alphabet);
  auto b = random_string(m, seed ^ 0x9999, alphabet);
  auto w1 = log_gap_cost(1.0, 2.0);
  auto w2 = log_gap_cost(1.5, 2.0);
  auto nv = gap_naive(a, b, w1, w2);
  auto sv = gap_seq(a, b, w1, w2, Shape::kConcave);
  expect_inline_matches_type_erased(a, b, w1, w2, Shape::kConcave, sv);
  auto pv = gap_parallel(a, b, w1, w2, Shape::kConcave);
  expect_same_table(nv, sv);
  expect_same_table(nv, pv);
}

INSTANTIATE_TEST_SUITE_P(Cases, GapConcaveSweep,
                         ::testing::Values(GapCase{10, 10, 2, 31},
                                           GapCase{25, 20, 3, 32},
                                           GapCase{40, 40, 2, 33}));

TEST(Gap, IdenticalStringsHaveZeroDistance) {
  auto a = random_string(30, 5, 3);
  auto w = affine_gap_cost(5.0, 1.0);
  auto pv = gap_parallel(a, a, w, w, Shape::kConvex);
  EXPECT_DOUBLE_EQ(pv.distance, 0.0);
}

TEST(Gap, EmptyVsNonEmptyIsOneGap) {
  std::vector<std::uint32_t> a{1, 2, 3, 4}, b{};
  auto w = affine_gap_cost(5.0, 1.0);
  auto nv = gap_naive(a, b, w, w);
  // Cheapest alignment: delete all of A in one gap = 5 + 4.
  EXPECT_DOUBLE_EQ(nv.distance, 9.0);
  auto pv = gap_parallel(a, b, w, w, Shape::kConvex);
  EXPECT_DOUBLE_EQ(pv.distance, 9.0);
}

TEST(Gap, ParallelRoundsAreBounded) {
  auto a = random_string(50, 41, 3);
  auto b = random_string(50, 42, 3);
  auto w = quadratic_gap_cost(2.0, 0.3);
  auto pv = gap_parallel(a, b, w, w, Shape::kConvex);
  // Rounds can never exceed the grid semi-perimeter.
  EXPECT_LE(pv.stats.rounds, a.size() + b.size() + 2);
  EXPECT_GE(pv.stats.rounds, 1u);
}

TEST(Gap, MatchHeavyInputsUseDiagonals) {
  // a == b: diagonal edges dominate; distance 0 and value at (k, k) is 0.
  std::vector<std::uint32_t> a(20, 7);
  auto w = affine_gap_cost(10.0, 2.0);
  auto pv = gap_parallel(a, a, w, w, Shape::kConvex);
  auto nv = gap_naive(a, a, w, w);
  for (std::size_t k = 0; k <= a.size(); ++k)
    EXPECT_NEAR(pv.at(k, k), nv.at(k, k), 1e-9);
}
