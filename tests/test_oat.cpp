// OAT: Garsia-Wachs vs interval-DP oracle, parallel vs sequential
// (Larmore: combining any disjoint locally minimal pairs gives the same
// cost, and the same l-tree unless weights or pair sums tie), phase-2
// reconstruction, work growth per doubling of n, and the Lemma 5.1
// height bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/oat/huffman.hpp"
#include "src/oat/oat.hpp"
#include "src/parallel/random.hpp"

using namespace cordon::oat;
namespace cp = cordon::parallel;

namespace {

std::vector<double> random_weights(std::size_t n, std::uint64_t seed,
                                   double lo, double hi) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i)
    w[i] = lo + cp::uniform_double(seed, i) * (hi - lo);
  return w;
}

std::vector<double> random_int_weights(std::size_t n, std::uint64_t seed,
                                       std::uint64_t bound) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i)
    w[i] = static_cast<double>(1 + cp::uniform(seed, i, bound));
  return w;
}

}  // namespace

class OatSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OatSweep, GarsiaWachsMatchesDpOracle) {
  const std::uint64_t seed = GetParam();
  for (std::size_t n : {1, 2, 3, 4, 10, 40, 90}) {
    auto w = random_int_weights(n, seed, 50);
    auto gw = oat_garsia_wachs(w);
    double oracle = oat_dp_cost(w);
    ASSERT_NEAR(gw.cost, oracle, 1e-7) << "n=" << n << " seed=" << seed;
  }
}

TEST_P(OatSweep, ParallelMatchesSequentialLevels) {
  const std::uint64_t seed = GetParam();
  for (std::size_t n : {1, 2, 3, 5, 16, 64, 200}) {
    auto w = random_int_weights(n, seed ^ 0xbeef, 1000);
    auto gw = oat_garsia_wachs(w);
    auto pv = oat_parallel(w);
    ASSERT_EQ(gw.levels, pv.levels) << "n=" << n << " seed=" << seed;
    ASSERT_NEAR(gw.cost, pv.cost, 1e-7);
  }
}

TEST_P(OatSweep, HuTuckerMatchesGarsiaWachs) {
  const std::uint64_t seed = GetParam();
  for (std::size_t n : {1, 2, 3, 5, 20, 60, 150}) {
    auto w = random_int_weights(n, seed ^ 0xcafe, 200);
    auto gw = oat_garsia_wachs(w);
    auto ht = oat_hu_tucker(w);
    ASSERT_NEAR(ht.cost, gw.cost, 1e-7) << "n=" << n << " seed=" << seed;
    // Both phase-1 algorithms construct the same l-tree level sequence.
    ASSERT_EQ(ht.levels, gw.levels) << "n=" << n << " seed=" << seed;
  }
}

TEST(Oat, HuTuckerMatchesOracleOnRealWeights) {
  for (std::uint64_t seed : {9, 10, 11}) {
    auto w = random_weights(60, seed, 0.1, 50.0);
    auto ht = oat_hu_tucker(w);
    ASSERT_NEAR(ht.cost, oat_dp_cost(w), 1e-7) << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OatSweep, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Oat, LevelsReconstructToAValidTree) {
  auto w = random_weights(64, 3, 1.0, 100.0);
  auto gw = oat_garsia_wachs(w);
  AlphabeticTree t = tree_from_levels(gw.levels);
  EXPECT_EQ(t.num_internal(), w.size() - 1);
  // Recompute leaf depths from the explicit tree and compare.
  std::vector<std::uint32_t> depth(w.size(), 0);
  // Root is the last internal node; walk down.
  struct Rec {
    static void go(const AlphabeticTree& t, std::int32_t id, std::uint32_t d,
                   std::vector<std::uint32_t>& out) {
      if (id >= 0) {
        out[static_cast<std::size_t>(id)] = d;
        return;
      }
      std::size_t k = static_cast<std::size_t>(~id);
      go(t, t.left[k], d + 1, out);
      go(t, t.right[k], d + 1, out);
    }
  };
  Rec::go(t, ~static_cast<std::int32_t>(t.num_internal() - 1), 0, depth);
  EXPECT_EQ(depth, gw.levels);
}

TEST(Oat, EqualWeightsGiveBalancedTree) {
  const std::size_t n = 64;
  std::vector<double> w(n, 1.0);
  auto gw = oat_garsia_wachs(w);
  EXPECT_EQ(gw.height, 6u);  // perfectly balanced over 64 leaves
  EXPECT_DOUBLE_EQ(gw.cost, 64.0 * 6.0);
}

TEST(Oat, HeightLemma51) {
  // Lemma 5.1: positive integer weights of word size W => height O(log W).
  // The proof gives: subtree weight doubles every 3 levels, so height <=
  // ~3 log2(total/min) + O(1).
  for (std::uint64_t seed : {1, 2, 3}) {
    for (std::uint64_t bound : {2ull, 16ull, 1024ull}) {
      const std::size_t n = 500;
      auto w = random_int_weights(n, seed, bound);
      double total = 0;
      for (double x : w) total += x;
      auto gw = oat_garsia_wachs(w);
      double limit = 3.0 * std::log2(total) + 3.0;
      EXPECT_LE(gw.height, static_cast<std::uint32_t>(limit))
          << "seed=" << seed << " bound=" << bound;
    }
  }
}

TEST(Oat, ParallelRoundsArePolylogarithmic) {
  // All-LMP rounds + the sorted-endgame two-queue drain (whose span is
  // the combine dependency depth, Lemma 5.1): random integer inputs
  // should finish in O(log n + log W) rounds, not O(n).
  const std::size_t n = 4096;
  auto w = random_int_weights(n, 11, 1 << 20);
  auto pv = oat_parallel(w);
  EXPECT_LT(pv.stats.rounds, 120u);
  EXPECT_EQ(pv.levels.size(), n);
}

TEST(Oat, ParallelMatchesSequentialLevelsAtScale) {
  // Rounds on 4096 or more nodes fork, and their packs span several
  // blocks.  Real-valued weights do not tie, so both bodies build the
  // same l-tree.
  for (std::size_t n : {5000, 20000}) {
    auto w = random_weights(n, 21, 1.0, 100.0);
    EXPECT_EQ(oat_parallel(w).levels, oat_garsia_wachs(w).levels) << n;
  }
}

TEST(Oat, IncreasingInputDrainsInHeightRounds) {
  // A fully sorted input hits the drain immediately: rounds == combine
  // dependency depth, which Lemma A.1 ties to the subtree-weight
  // doubling (≈ 3 levels per doubling), far below n.
  const std::size_t n = 2048;
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = static_cast<double>(i + 1);
  auto pv = oat_parallel(w);
  EXPECT_LT(pv.stats.rounds, 80u);
  EXPECT_EQ(pv.levels, oat_garsia_wachs(w).levels);
}

TEST(Oat, IncreasingWeightsWorstCaseStillCorrect) {
  // Monotone weights are the adversarial case for the pair-based rounds
  // ([72]'s motivation for valleys): correctness must hold regardless.
  const std::size_t n = 200;
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = static_cast<double>(i + 1);
  auto gw = oat_garsia_wachs(w);
  auto pv = oat_parallel(w);
  EXPECT_EQ(gw.levels, pv.levels);
  EXPECT_NEAR(gw.cost, oat_dp_cost(w), 1e-7);
}

TEST(Oat, HuffmanLowerBoundsAlphabeticCost) {
  // Huffman optimizes over all binary trees, OAT only over order-
  // preserving ones, so huffman <= oat always; on sorted weights the
  // order constraint is free and they must coincide.
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    auto w = random_weights(200, seed, 1.0, 100.0);
    auto hf = huffman(w);
    auto gw = oat_garsia_wachs(w);
    EXPECT_LE(hf.cost, gw.cost + 1e-7) << seed;
    std::sort(w.begin(), w.end());
    EXPECT_NEAR(huffman(w).cost, oat_garsia_wachs(w).cost, 1e-7) << seed;
  }
}

TEST(Oat, HuffmanKraftEquality) {
  auto w = random_weights(77, 5, 0.5, 20.0);
  auto hf = huffman(w);
  double kraft = 0;
  for (auto len : hf.lengths) kraft += std::pow(0.5, len);
  EXPECT_NEAR(kraft, 1.0, 1e-9);
}

TEST(Oat, SawtoothAdversarialStillExact) {
  // Repeated interior sorted runs (the drain only fires on a fully
  // sorted list): correctness must hold and rounds stay far below n.
  const std::size_t n = 1024;
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i)
    w[i] = static_cast<double>((i % 64) * 100 + i / 64 + 1);
  auto gw = oat_garsia_wachs(w);
  auto pv = oat_parallel(w);
  EXPECT_EQ(gw.levels, pv.levels);
  EXPECT_LT(pv.stats.rounds, n / 2);
}

TEST(Oat, TiedWeightsKeepTheOptimalCost) {
  // With ties the two bodies may build different l-trees of equal cost.
  // The smallest such input found:
  const std::vector<double> small{1, 1, 1, 2, 2, 1};
  auto gw = oat_garsia_wachs(small);
  auto pv = oat_parallel(small);
  EXPECT_EQ(gw.levels, (std::vector<std::uint32_t>{3, 3, 2, 2, 3, 3}));
  EXPECT_EQ(pv.levels, (std::vector<std::uint32_t>{4, 4, 3, 2, 2, 2}));
  EXPECT_DOUBLE_EQ(gw.cost, 21.0);
  EXPECT_DOUBLE_EQ(pv.cost, 21.0);
  EXPECT_DOUBLE_EQ(oat_dp_cost(small), 21.0);
  // Both parents of the first round weigh 5 and land in one slot;
  // reinsertion puts the later pair first, so the levels match GW's.
  EXPECT_EQ(oat_parallel({2, 3, 4, 4, 1}).levels,
            (std::vector<std::uint32_t>{2, 2, 2, 3, 3}));

  // Weights from {1, 2, 3, 4}: ties everywhere.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (std::size_t n : {2, 3, 5, 9, 17, 40, 100}) {
      auto w = random_int_weights(n, seed, 4);
      const double oracle = oat_dp_cost(w);
      for (const OatResult& r : {oat_garsia_wachs(w), oat_parallel(w)}) {
        ASSERT_NEAR(r.cost, oracle, 1e-7) << "n=" << n << " seed=" << seed;
        EXPECT_NO_THROW((void)tree_from_levels(r.levels))
            << "n=" << n << " seed=" << seed;
      }
    }
  }
}

TEST(Oat, WorkGrowsAsNLogN) {
  // Counted work per doubling of n: n log n gives about 2.15x, while a
  // reinsertion that walks the working list (quadratic) gives 4x.  The
  // counters are machine-independent, so this needs no cores.
  for (std::uint64_t seed : {1, 2, 3}) {
    std::uint64_t prev_gw = 0, prev_par = 0;
    for (std::size_t n : {4096, 8192, 16384}) {
      auto w = random_weights(n, seed, 1.0, 100.0);
      const std::uint64_t gw = oat_garsia_wachs(w).stats.relaxations;
      const std::uint64_t par = oat_parallel(w).stats.relaxations;
      if (prev_gw != 0) {
        EXPECT_LE(static_cast<double>(gw), 2.6 * static_cast<double>(prev_gw))
            << "garsia_wachs n=" << n << " seed=" << seed;
        EXPECT_LE(static_cast<double>(par),
                  2.6 * static_cast<double>(prev_par))
            << "parallel n=" << n << " seed=" << seed;
      }
      prev_gw = gw;
      prev_par = par;
    }
  }
}

TEST(Oat, RejectsWeightsWhoseSumsAreNotFinite) {
  // Each weight is finite, but 1e308 + 1e308 overflows to +inf, and a
  // later sum meets -inf: NaN.
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& w :
       {std::vector<double>{1e308, 1e308, -1e308, -1e308, 1, 2},
        std::vector<double>{1, inf, 2},
        std::vector<double>{1, std::numeric_limits<double>::quiet_NaN()}}) {
    EXPECT_THROW((void)oat_garsia_wachs(w), std::invalid_argument);
    EXPECT_THROW((void)oat_parallel(w), std::invalid_argument);
    EXPECT_THROW((void)oat_hu_tucker(w), std::invalid_argument);
  }
}

TEST(Oat, SingleAndPairInputs) {
  EXPECT_EQ(oat_garsia_wachs({5.0}).height, 0u);
  auto two = oat_garsia_wachs({3.0, 4.0});
  EXPECT_EQ(two.levels, (std::vector<std::uint32_t>{1, 1}));
  EXPECT_DOUBLE_EQ(two.cost, 7.0);
}
