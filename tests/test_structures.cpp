// Data-structure substrates vs brute-force oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/parallel/random.hpp"
#include "src/structures/best_decision_list.hpp"
#include "src/structures/hld.hpp"
#include "src/structures/monotonic_queue.hpp"
#include "src/structures/range_tree.hpp"
#include "src/structures/segment_tree.hpp"
#include "src/structures/tournament_tree.hpp"
#include "src/structures/tree_utils.hpp"

namespace cs = cordon::structures;
namespace cp = cordon::parallel;

// ---------------------------------------------------------------- tournament
namespace {

// Brute-force prefix-minima extraction over an active-flag array.
std::vector<std::size_t> brute_prefix_minima(std::vector<std::uint64_t>& keys,
                                             std::vector<bool>& active) {
  std::vector<std::size_t> out;
  std::uint64_t run = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!active[i]) continue;
    if (keys[i] <= run) out.push_back(i);
    run = std::min(run, keys[i]);
  }
  for (std::size_t i : out) active[i] = false;
  return out;
}

}  // namespace

class TournamentSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TournamentSweep, MatchesBruteForceAcrossRounds) {
  const std::size_t n = GetParam();
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = cp::hash64(77, i) % (n + 3);
  cs::TournamentTree tree(keys);
  std::vector<bool> active(n, true);
  auto brute_keys = keys;
  while (!tree.empty()) {
    auto got = tree.extract_prefix_minima();
    auto expect = brute_prefix_minima(brute_keys, active);
    ASSERT_EQ(got, expect);
    ASSERT_FALSE(got.empty());
  }
  EXPECT_TRUE(std::none_of(active.begin(), active.end(),
                           [](bool b) { return b; }));
}

INSTANTIATE_TEST_SUITE_P(Sizes, TournamentSweep,
                         ::testing::Values(1, 2, 3, 15, 16, 17, 100, 1000,
                                           40000));

// ------------------------------------------------------------- segment tree
TEST(SegmentTree, PointUpdateRangeMin) {
  struct MinOp {
    int operator()(int a, int b) const { return a < b ? a : b; }
  };
  const std::size_t n = 200;
  cs::SegmentTree<int, MinOp> st(n, 1 << 30, MinOp{});
  std::vector<int> ref(n, 1 << 30);
  for (std::size_t step = 0; step < 500; ++step) {
    std::size_t i = cp::hash64(9, step) % n;
    int val = static_cast<int>(cp::hash64(10, step) % 1000);
    st.set(i, val);
    ref[i] = val;
    std::size_t lo = cp::hash64(11, step) % n;
    std::size_t hi = lo + 1 + cp::hash64(12, step) % (n - lo);
    int expect = 1 << 30;
    for (std::size_t k = lo; k < hi; ++k) expect = std::min(expect, ref[k]);
    ASSERT_EQ(st.query(lo, hi), expect);
  }
}

// ----------------------------------------------------------------- tree utils
TEST(EulerTour, SubtreeRangesAndDepths) {
  auto parents = std::vector<std::uint32_t>{cs::kNoNode, 0, 0, 1, 1, 2, 5, 5};
  cs::RootedTree t(parents);
  cs::EulerTour et = cs::build_euler_tour(t);
  EXPECT_EQ(t.depth[0], 0u);
  EXPECT_EQ(t.depth[3], 2u);
  EXPECT_EQ(t.depth[7], 3u);
  // Subtree of 5 = {5, 6, 7} — contiguous in preorder.
  EXPECT_EQ(et.tout[5] - et.tin[5], 3u);
  // Every child's range nests inside its parent's.
  for (std::uint32_t v = 1; v < t.size(); ++v) {
    EXPECT_GE(et.tin[v], et.tin[t.parent[v]]);
    EXPECT_LE(et.tout[v], et.tout[t.parent[v]]);
  }
}

TEST(RootedTree, ChildrenInNodeIndexOrder) {
  // children[v] lists v's children by increasing node index: the order
  // the tree DFS, the Euler tour and HLD visit them in.
  const std::uint32_t n = 500;
  std::vector<std::uint32_t> star(n, 0), path(n), random(n);
  for (std::uint32_t v = 1; v < n; ++v) {
    path[v] = v - 1;
    random[v] = static_cast<std::uint32_t>(cp::hash64(43, v) % v);
  }
  star[0] = path[0] = random[0] = cs::kNoNode;
  for (const auto& parents : {star, path, random}) {
    cs::RootedTree t(parents);
    std::vector<std::vector<std::uint32_t>> expect(n);
    for (std::uint32_t v = 1; v < n; ++v) expect[parents[v]].push_back(v);
    EXPECT_EQ(t.root, 0u);
    for (std::uint32_t v = 0; v < n; ++v)
      ASSERT_EQ(std::vector<std::uint32_t>(t.children[v].begin(),
                                           t.children[v].end()),
                expect[v])
          << "node " << v;
  }
}

TEST(RootedTree, DepthAndHeightMatchADfs) {
  // The validating parent walk hands out depths; compare them with a DFS
  // from the root.  "relabeled" and "reversed path" put parents after
  // their children, so most walks take many steps before meeting a node
  // of known depth.
  const std::uint32_t n = 500;
  std::vector<std::uint32_t> star(n, 0), path(n), random(n), broom(n),
      reversed(n), relabeled(n);
  std::vector<std::uint32_t> label(n);  // label[v]: v's id in `relabeled`
  for (std::uint32_t v = 0; v < n; ++v) label[v] = n - 1 - v;
  for (std::uint32_t v = 1; v < n; ++v) {
    path[v] = v - 1;
    random[v] = static_cast<std::uint32_t>(cp::hash64(47, v) % v);
    broom[v] = v < n / 2 ? v - 1 : n / 2 - 1;
    std::swap(label[v], label[cp::hash64(53, v) % (v + 1)]);
  }
  star[0] = path[0] = random[0] = broom[0] = cs::kNoNode;
  for (std::uint32_t v = 0; v < n; ++v) {
    reversed[v] = v + 1 < n ? v + 1 : cs::kNoNode;
    relabeled[label[v]] = v == 0 ? cs::kNoNode : label[random[v]];
  }
  for (const auto& parents : {star, path, random, broom, reversed, relabeled}) {
    cs::RootedTree t(parents);
    std::vector<std::uint32_t> expect(n, 0), stack{t.root};
    std::uint32_t height = 0;
    while (!stack.empty()) {
      std::uint32_t v = stack.back();
      stack.pop_back();
      height = std::max(height, expect[v]);
      for (std::uint32_t c : t.children[v]) {
        expect[c] = expect[v] + 1;
        stack.push_back(c);
      }
    }
    EXPECT_EQ(t.depth, expect);
    EXPECT_EQ(t.height, height);
  }
  EXPECT_EQ(cs::RootedTree({cs::kNoNode}).height, 0u);
  EXPECT_EQ(cs::RootedTree(path).height, n - 1);
  EXPECT_EQ(cs::RootedTree(reversed).height, n - 1);
  EXPECT_EQ(cs::RootedTree(star).height, 1u);
  EXPECT_EQ(cs::RootedTree(broom).height, n / 2);
}

TEST(RootedTree, RejectsParentArraysThatAreNotOneTree) {
  constexpr std::uint32_t kRoot = cs::kNoNode;
  const std::vector<std::uint32_t> hostile[] = {
      {},                         // no node, so no root
      {1, 0, 0},                  // no root: 0 and 1 form a cycle
      {kRoot, kRoot, 0},          // two roots
      {kRoot, 0, 1, 900000},      // parent out of range
      {kRoot, 1},                 // self-loop
      {kRoot, 2, 3, 1},           // cycle met two steps into a walk
      {2, kRoot, 3, 4, 2},        // node 0 walks into the cycle 2-3-4
  };
  for (const auto& parents : hostile)
    EXPECT_THROW(cs::RootedTree{parents}, std::invalid_argument);
}

// ------------------------------------------------------------------ range tree
TEST(RangeTree2D, MatchesBruteForce) {
  const std::size_t n = 400;
  std::vector<cs::RangeTree2D::Point> pts(n);
  for (std::uint32_t i = 0; i < n; ++i)
    pts[i] = {static_cast<std::uint32_t>(cp::hash64(31, i) % 100),
              static_cast<std::uint32_t>(cp::hash64(32, i) % 100), i};
  auto copy = pts;
  cs::RangeTree2D rt(std::move(copy));
  for (std::size_t q = 0; q < 200; ++q) {
    std::uint32_t xlo = static_cast<std::uint32_t>(cp::hash64(33, q) % 100);
    std::uint32_t xhi = xlo + cp::hash64(34, q) % 30;
    std::uint32_t ylo = static_cast<std::uint32_t>(cp::hash64(35, q) % 100);
    std::uint32_t yhi = ylo + cp::hash64(36, q) % 30;
    std::vector<std::uint32_t> expect;
    for (const auto& p : pts)
      if (p.x >= xlo && p.x <= xhi && p.y >= ylo && p.y <= yhi)
        expect.push_back(p.id);
    auto got = rt.report(xlo, xhi, ylo, yhi);
    std::sort(got.begin(), got.end());
    std::sort(expect.begin(), expect.end());
    ASSERT_EQ(got, expect);
    ASSERT_EQ(rt.count(xlo, xhi, ylo, yhi), expect.size());
  }
}

// ------------------------------------------------------------------------ hld
TEST(Hld, RootPathSegmentsCoverExactlyThePath) {
  const std::size_t n = 300;
  std::vector<std::uint32_t> parents(n, cs::kNoNode);
  for (std::uint32_t v = 1; v < n; ++v)
    parents[v] = static_cast<std::uint32_t>(cp::hash64(41, v) % v);
  cs::RootedTree t(parents);
  cs::HeavyLightDecomposition hld(t);
  for (std::uint32_t v = 0; v < n; ++v) {
    // Expected path node set.
    std::vector<std::uint32_t> path;
    for (std::uint32_t u = v; u != cs::kNoNode; u = t.parent[u])
      path.push_back(u);
    std::vector<std::uint32_t> covered;
    std::size_t segments = 0;
    hld.for_each_root_path_segment(v, [&](std::uint32_t lo, std::uint32_t hi) {
      ++segments;
      for (std::uint32_t p = lo; p < hi; ++p)
        covered.push_back(hld.node_at(p));
    });
    std::sort(path.begin(), path.end());
    std::sort(covered.begin(), covered.end());
    ASSERT_EQ(covered, path) << "node " << v;
    // O(log n) segments: generous constant for random trees.
    ASSERT_LE(segments, 2 * 20u);
  }
}

// -------------------------------------------------------------- decision list
TEST(BestDecisionList, LookupAndAdvance) {
  cs::BestDecisionList b({{1, 4, 0}, {5, 9, 2}, {10, 12, 7}});
  EXPECT_EQ(b.best_of(1), 0u);
  EXPECT_EQ(b.best_of(4), 0u);
  EXPECT_EQ(b.best_of(5), 2u);
  EXPECT_EQ(b.best_of(12), 7u);
  EXPECT_EQ(b.best_of(13), cs::BestDecisionList::kNone);
  b.advance_to(6);
  EXPECT_EQ(b.best_of(5), cs::BestDecisionList::kNone);
  EXPECT_EQ(b.best_of(6), 2u);
  EXPECT_EQ(b.cover_lo(), 6u);
}

TEST(BestDecisionList, FirstWinFindsSuffixStart) {
  // Envelope: decision 0 everywhere; candidate 5 beats it from state 8 on.
  cs::BestDecisionList b({{1, 20, 0}});
  auto eval = [](std::size_t j, std::size_t i) {
    if (j == 0) return 10.0;
    return i >= 8 ? 5.0 : 15.0;  // candidate 5 wins iff i >= 8
  };
  EXPECT_EQ(b.first_win(5, eval, 1), 8u);
  EXPECT_EQ(b.first_win(5, eval, 9), 9u);
  auto never = [](std::size_t j, std::size_t) { return j == 0 ? 1.0 : 2.0; };
  EXPECT_EQ(b.first_win(5, never, 1), cs::BestDecisionList::kNone);
}

// ------------------------------------------------------------ monotonic queue
TEST(MonotonicQueue, ConvexMatchesBruteForce) {
  // eval(j, i) = E[j] + (x_i - x_j)^2 over a fixed candidate set, queried
  // in state order with interleaved inserts — the Γlws access pattern.
  const std::size_t n = 200;
  std::vector<double> x(n + 1), ev(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    x[i] = static_cast<double>(i) +
           cp::uniform_double(51, i);
    ev[i] = cp::uniform_double(52, i) * 10.0;
  }
  auto eval = [&](std::size_t j, std::size_t i) {
    double s = x[i] - x[j];
    return ev[j] + s * s;
  };
  cs::MonotonicQueue<decltype(eval)> q(n, eval);
  q.insert_convex(0);
  for (std::size_t i = 1; i <= n; ++i) {
    std::size_t got = q.best(i);
    double best = 1e300;
    std::size_t expect = 0;
    for (std::size_t j = 0; j < i; ++j)
      if (eval(j, i) < best) {
        best = eval(j, i);
        expect = j;
      }
    ASSERT_DOUBLE_EQ(eval(got, i), eval(expect, i)) << i;
    if (i < n) q.insert_convex(i);
  }
}

TEST(MonotonicQueue, ConcaveMatchesBruteForce) {
  const std::size_t n = 200;
  std::vector<double> x(n + 1), ev(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    x[i] = static_cast<double>(i) + cp::uniform_double(61, i);
    ev[i] = cp::uniform_double(62, i) * 2.0;
  }
  auto eval = [&](std::size_t j, std::size_t i) {
    return ev[j] + std::sqrt(x[i] - x[j]);
  };
  cs::MonotonicQueue<decltype(eval)> q(n, eval);
  q.insert_concave(0);
  for (std::size_t i = 1; i <= n; ++i) {
    std::size_t got = q.best(i);
    double best = 1e300;
    std::size_t expect = 0;
    for (std::size_t j = 0; j < i; ++j)
      if (eval(j, i) < best) {
        best = eval(j, i);
        expect = j;
      }
    ASSERT_NEAR(eval(got, i), eval(expect, i), 1e-9) << i;
    if (i < n) q.insert_concave(i);
  }
}
