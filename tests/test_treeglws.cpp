// Tree-GLWS: naive ancestor-scan vs journaled DFS vs parallel cordon on
// assorted tree shapes (random, path, star, caterpillar).
#include <gtest/gtest.h>

#include <vector>

#include "src/structures/tree_utils.hpp"
#include "src/treeglws/tree_glws.hpp"
#include "test_util.hpp"

using namespace cordon::treeglws;
using cordon::structures::RootedTree;
namespace ct = cordon::testing;

namespace {

void expect_same(const TreeGlwsResult& a, const TreeGlwsResult& b,
                 double tol = 1e-7) {
  ASSERT_EQ(a.d.size(), b.d.size());
  for (std::size_t v = 0; v < a.d.size(); ++v)
    ASSERT_NEAR(a.d[v], b.d[v], tol) << "node " << v;
}

cordon::glws::CostFn depth_convex_cost(std::size_t max_depth,
                                       std::uint64_t seed) {
  // w(d_u, d_v) over depths; convex in the depth difference.
  auto x = ct::random_positions(max_depth + 1, seed);
  return [x](std::size_t du, std::size_t dv) {
    double s = (*x)[dv] - (*x)[du];
    return 20.0 + 0.1 * s * s;
  };
}

}  // namespace

struct TreeCase {
  std::size_t n;
  std::uint64_t seed;
};

class TreeGlwsRandomSweep : public ::testing::TestWithParam<TreeCase> {};

TEST_P(TreeGlwsRandomSweep, NaiveSeqParallelAgree) {
  auto [n, seed] = GetParam();
  RootedTree t(ct::random_tree_parents(n, seed));
  auto w = depth_convex_cost(n, seed ^ 0x77);
  auto e = cordon::glws::identity_e();
  auto nv = tree_glws_naive(t, 0.0, w, e);
  auto sv = tree_glws_sequential(t, 0.0, w, e);
  auto pv = tree_glws_parallel(t, 0.0, w, e);
  expect_same(nv, sv);
  expect_same(nv, pv);
}

INSTANTIATE_TEST_SUITE_P(Cases, TreeGlwsRandomSweep,
                         ::testing::Values(TreeCase{1, 1}, TreeCase{2, 2},
                                           TreeCase{3, 3}, TreeCase{10, 4},
                                           TreeCase{50, 5}, TreeCase{200, 6},
                                           TreeCase{500, 7}, TreeCase{1000, 8},
                                           TreeCase{2000, 9}));

TEST(TreeGlws, PathTreeEqualsLinearGlws) {
  // A path tree is exactly the 1D problem: compare against the 1D
  // parallel GLWS on the same cost.
  const std::size_t n = 300;
  RootedTree t(ct::path_tree_parents(n + 1));  // n+1 nodes: depths 0..n
  auto w = depth_convex_cost(n + 1, 13);
  auto e = cordon::glws::identity_e();
  auto tv = tree_glws_parallel(t, 0.0, w, e);
  auto lv = cordon::glws::glws_parallel(n, 0.0, w, e,
                                        cordon::glws::Shape::kConvex);
  for (std::size_t v = 0; v <= n; ++v)
    ASSERT_NEAR(tv.d[v], lv.d[v], 1e-7) << v;  // node v has depth v
}

TEST(TreeGlws, StarFinishesInOneRound) {
  const std::size_t n = 100;
  std::vector<std::uint32_t> parents(n, 0);
  parents[0] = cordon::structures::kNoNode;
  RootedTree t(parents);
  auto w = depth_convex_cost(4, 17);
  auto pv = tree_glws_parallel(t, 0.0, w, cordon::glws::identity_e());
  EXPECT_EQ(pv.stats.rounds, 1u);  // all leaves depend only on the root
  for (std::size_t v = 1; v < n; ++v) ASSERT_NEAR(pv.d[v], pv.d[1], 1e-12);
}

TEST(TreeGlws, CaterpillarAgrees) {
  const std::size_t n = 401;
  RootedTree t(ct::caterpillar_parents(n));
  auto w = depth_convex_cost(n, 29);
  auto e = cordon::glws::identity_e();
  auto nv = tree_glws_naive(t, 0.0, w, e);
  auto pv = tree_glws_parallel(t, 0.0, w, e);
  expect_same(nv, pv);
}

TEST(TreeGlws, SiblingsShareDpValues) {
  RootedTree t(ct::random_tree_parents(300, 31));
  auto w = depth_convex_cost(300, 37);
  auto pv = tree_glws_parallel(t, 0.0, w, cordon::glws::identity_e());
  for (std::uint32_t v = 0; v < t.size(); ++v)
    for (std::size_t c = 1; c < t.children[v].size(); ++c)
      ASSERT_NEAR(pv.d[t.children[v][c]], pv.d[t.children[v][0]], 1e-12);
}

TEST(TreeGlws, GeneralizedEDependsOnNode) {
  // E[u] = D[u] + per-node bias: siblings still share D but not E.
  RootedTree t(ct::random_tree_parents(200, 41));
  auto w = depth_convex_cost(200, 43);
  cordon::glws::EFn e = [](double d, std::size_t u) {
    return d + static_cast<double>(u % 7) * 0.25;
  };
  auto nv = tree_glws_naive(t, 0.0, w, e);
  auto sv = tree_glws_sequential(t, 0.0, w, e);
  auto pv = tree_glws_parallel(t, 0.0, w, e);
  expect_same(nv, sv);
  expect_same(nv, pv);
}

TEST(TreeGlws, PathRoundsMatchLinearGlwsRounds) {
  // On a path the tree algorithm must not only compute 1D values but
  // take the same number of cordon rounds as the 1D algorithm (same
  // sentinel structure).
  const std::size_t n = 400;
  RootedTree t(ct::path_tree_parents(n + 1));
  auto w = depth_convex_cost(n + 1, 61);
  auto e = cordon::glws::identity_e();
  auto tv = tree_glws_parallel(t, 0.0, w, e);
  auto lv = cordon::glws::glws_parallel(n, 0.0, w, e,
                                        cordon::glws::Shape::kConvex);
  EXPECT_EQ(tv.stats.rounds, lv.stats.rounds);
}

TEST(TreeGlws, RoundsBoundedByEnvelopeChainOnPath) {
  // With a huge opening cost the best decision chain is short; rounds
  // should be far below the path length.
  const std::size_t n = 500;
  RootedTree t(ct::path_tree_parents(n));
  auto x = ct::random_positions(n, 51);
  cordon::glws::CostFn w = [x](std::size_t du, std::size_t dv) {
    double s = (*x)[dv] - (*x)[du];
    return 1e6 + s * s;  // few clusters => shallow decision DAG
  };
  auto pv = tree_glws_parallel(t, 0.0, w, cordon::glws::identity_e());
  EXPECT_LT(pv.stats.rounds, 60u);
}

class TreeGlwsSpanCostSweep
    : public ::testing::TestWithParam<cordon::glws::SpanCost::Kind> {};

TEST_P(TreeGlwsSpanCostSweep, InlineAndTypeErasedSequentialAgree) {
  // The journaled DFS calls a CostFn's SpanCost inline and a plain
  // lambda through the CostFn: bit for bit the same D, decisions and
  // work.  (log1p is concave, which the engine rejects for treeglws; the
  // two instantiations must still agree on it.)
  const cordon::glws::SpanCost cost{GetParam(), 20.0, 0.1};
  std::vector<std::uint32_t> broom = ct::path_tree_parents(2000);
  for (std::uint32_t v = 1000; v < 2000; ++v) broom[v] = 999;
  auto e = [](double d, std::size_t v) { return d + 0.25 * double(v % 5); };
  for (const auto& parents : {ct::random_tree_parents(2000, 83), broom,
                              ct::caterpillar_parents(301)}) {
    RootedTree t(parents);
    auto inl = tree_glws_sequential(t, 0.0, cost, e);
    auto erased = tree_glws_sequential(t, 0.0, ct::plain_span_cost(cost), e);
    EXPECT_EQ(inl.d, erased.d);
    EXPECT_EQ(inl.best, erased.best);
    ct::expect_same_stats(inl.stats, erased.stats);
    if (GetParam() != cordon::glws::SpanCost::Kind::kLog1p)
      expect_same(inl, tree_glws_naive(t, 0.0, cost, e));
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, TreeGlwsSpanCostSweep,
                         ::testing::ValuesIn(ct::kSpanKinds));

TEST(TreeGlws, SequentialWorkCountsArePinned) {
  // states and relaxations of the journaled DFS, whose decision
  // intervals end at the tree's height: the DFS order and every
  // envelope comparison must stay exactly as they are.
  std::vector<std::uint32_t> broom = ct::path_tree_parents(2000);
  for (std::uint32_t v = 1000; v < 2000; ++v) broom[v] = 999;  // 1000 leaves
  struct Pin {
    const char* what;
    std::vector<std::uint32_t> parents;
    std::uint64_t cost_seed, relaxations;
  };
  const Pin pins[] = {
      {"random", ct::random_tree_parents(2000, 71), 73, 14878},
      {"broom", broom, 79, 16354},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.what);
    RootedTree t(pin.parents);
    auto w = depth_convex_cost(2000, pin.cost_seed);
    auto e = cordon::glws::identity_e();
    auto r = tree_glws_sequential(t, 0.0, w, e);
    EXPECT_EQ(r.stats.states, 2000u);
    EXPECT_EQ(r.stats.relaxations, pin.relaxations);
    expect_same(r, tree_glws_naive(t, 0.0, w, e));
  }
}
