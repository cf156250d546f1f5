// Sparse LCS: naive grid DP vs Hunt-Szymanski vs cordon-parallel, plus
// the Thm 3.2 structural properties and the per-pair DP cross-check.
#include <gtest/gtest.h>

#include <vector>

#include "src/lcs/lcs.hpp"
#include "src/lis/lis.hpp"
#include "src/parallel/random.hpp"
#include "test_util.hpp"

using namespace cordon::lcs;
namespace cp = cordon::parallel;

namespace {

// Draws x < alphabet and stores (x << shift), complemented when flip is
// set: flip puts the symbols at the top of the u32 range (x = 0 becomes
// 0xffffffff), shift 20 makes them all share their low 20 bits.
std::vector<std::uint32_t> random_string(std::size_t n, std::uint64_t seed,
                                         std::uint32_t alphabet,
                                         unsigned shift = 0,
                                         bool flip = false) {
  std::vector<std::uint32_t> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto x = static_cast<std::uint32_t>(cp::uniform(seed, i, alphabet));
    s[i] = flip ? ~(x << shift) : x << shift;
  }
  return s;
}

}  // namespace

struct LcsCase {
  std::size_t n, m;
  std::uint32_t alphabet;
  std::uint64_t seed;
  unsigned shift = 0;  // symbol layout, see random_string
  bool flip = false;
};

class LcsSweep : public ::testing::TestWithParam<LcsCase> {};

TEST_P(LcsSweep, AllAlgorithmsAgree) {
  auto [n, m, alphabet, seed, shift, flip] = GetParam();
  auto a = random_string(n, seed, alphabet, shift, flip);
  auto b = random_string(m, seed ^ 0xf00d, alphabet, shift, flip);
  auto pairs = match_pairs(a, b);
  // Both extractions enumerate exactly the matches, in (i asc, j desc)
  // order.
  std::vector<MatchPair> brute;
  for (std::uint32_t i = 0; i < n; ++i)
    for (auto j = static_cast<std::uint32_t>(m); j > 0; --j)
      if (a[i] == b[j - 1]) brute.push_back({i, j - 1});
  auto soa = match_pairs_soa(a, b);
  ASSERT_EQ(pairs.size(), brute.size());
  ASSERT_EQ(soa.size(), brute.size());
  for (std::size_t p = 0; p < brute.size(); ++p) {
    ASSERT_TRUE(pairs[p].i == brute[p].i && pairs[p].j == brute[p].j) << p;
    ASSERT_TRUE(soa.i[p] == brute[p].i && soa.j[p] == brute[p].j) << p;
  }
  auto nv = lcs_naive(a, b);
  auto sv = lcs_sparse_seq(pairs);
  auto pv = lcs_parallel(pairs);
  EXPECT_EQ(nv.length, sv.length);
  EXPECT_EQ(nv.length, pv.length);
  // Thm 3.2: rounds == LCS length, and each pair is processed once.
  EXPECT_EQ(pv.stats.rounds, pv.length);
  EXPECT_EQ(pv.stats.states, pairs.size());
  // Per-pair DP values agree between the two sparse algorithms.
  ASSERT_EQ(sv.pair_dp.size(), pv.pair_dp.size());
  for (std::size_t p = 0; p < pairs.size(); ++p)
    ASSERT_EQ(sv.pair_dp[p], pv.pair_dp[p]) << p;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LcsSweep,
    ::testing::Values(LcsCase{0, 0, 4, 1}, LcsCase{5, 0, 4, 2},
                      LcsCase{1, 1, 1, 3}, LcsCase{20, 20, 4, 4},
                      LcsCase{50, 30, 2, 5}, LcsCase{100, 100, 26, 6},
                      LcsCase{100, 100, 2, 7}, LcsCase{300, 200, 8, 8},
                      LcsCase{500, 500, 3, 9},
                      // Symbols at the top of the u32 range, 0xffffffff
                      // included, and symbols sharing their low 20 bits.
                      LcsCase{300, 200, 8, 10, 0, true},
                      LcsCase{400, 300, 64, 11, 20, false},
                      LcsCase{500, 400, 40, 12, 20, true}));

TEST(Lcs, PairDpEqualsPrefixLcs) {
  // pair_dp[p] must equal the LCS of the prefixes ending at that match
  // and using it: check against the naive grid of each prefix pair.
  auto a = random_string(40, 77, 3);
  auto b = random_string(35, 99, 3);
  auto pairs = match_pairs(a, b);
  auto pv = lcs_parallel(pairs);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    std::vector<std::uint32_t> ap(a.begin(), a.begin() + pairs[p].i + 1);
    std::vector<std::uint32_t> bp(b.begin(), b.begin() + pairs[p].j + 1);
    // LCS ending *at* (i, j): both prefixes must end with the matched
    // symbol, so it equals LCS(ap, bp) when the last pair is used; the
    // DP value is <= LCS(ap, bp) and >= LCS(ap', bp') + 1 of the shorter
    // prefixes.  The tight check: LCS(ap, bp) == pair value when the
    // match is optimal, but in general pair_dp <= LCS(ap, bp).
    EXPECT_LE(pv.pair_dp[p], lcs_naive(ap, bp).length);
  }
  // And the max pair value is the full LCS.
  std::uint32_t best = 0;
  for (auto v : pv.pair_dp) best = std::max(best, v);
  EXPECT_EQ(best, lcs_naive(a, b).length);
}

TEST(Lcs, IdenticalStrings) {
  auto a = random_string(200, 5, 4);
  auto pairs = match_pairs(a, a);
  auto pv = lcs_parallel(pairs);
  EXPECT_EQ(pv.length, a.size());
}

TEST(Lcs, DisjointAlphabetsNoPairs) {
  std::vector<std::uint32_t> a{1, 2, 3}, b{4, 5, 6};
  auto pairs = match_pairs(a, b);
  EXPECT_TRUE(pairs.empty());
  EXPECT_EQ(lcs_parallel(pairs).length, 0u);
  EXPECT_EQ(lcs_naive(a, b).length, 0u);
}

TEST(Lcs, MatchPairsOrderInvariant) {
  // (i asc, j desc) — required by both sparse algorithms.
  auto a = random_string(100, 13, 3);
  auto b = random_string(80, 14, 3);
  auto pairs = match_pairs(a, b);
  for (std::size_t p = 1; p < pairs.size(); ++p) {
    ASSERT_TRUE(pairs[p - 1].i < pairs[p].i ||
                (pairs[p - 1].i == pairs[p].i && pairs[p - 1].j > pairs[p].j));
  }
  for (const auto& pr : pairs) ASSERT_EQ(a[pr.i], b[pr.j]);
}

TEST(Lcs, RecoveredChainIsAValidWitness) {
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    auto a = random_string(120, seed, 3);
    auto b = random_string(90, seed ^ 0xc0ffee, 3);
    auto pairs = match_pairs(a, b);
    auto res = lcs_parallel(pairs);
    auto chain = recover_chain(pairs, res);
    ASSERT_EQ(chain.size(), res.length);
    for (std::size_t c = 0; c < chain.size(); ++c) {
      ASSERT_EQ(a[chain[c].i], b[chain[c].j]);  // each link is a match
      if (c > 0) {  // strictly increasing in both coordinates
        ASSERT_LT(chain[c - 1].i, chain[c].i);
        ASSERT_LT(chain[c - 1].j, chain[c].j);
      }
    }
  }
}

TEST(Lcs, RecoveredChainFromSequentialDpToo) {
  auto a = random_string(80, 9, 4);
  auto b = random_string(80, 10, 4);
  auto pairs = match_pairs(a, b);
  auto res = lcs_sparse_seq(pairs);
  auto chain = recover_chain(pairs, res);
  EXPECT_EQ(chain.size(), res.length);
}

TEST(Lcs, LisReductionViaLcs) {
  // LIS of a permutation == LCS of the permutation with sorted order
  // (Sec. 3, Fig. 2).
  auto perm = cp::random_permutation(150, 21);
  std::vector<std::uint32_t> sorted(perm.size());
  for (std::uint32_t i = 0; i < sorted.size(); ++i) sorted[i] = i;
  std::vector<std::uint32_t> seq(perm.begin(), perm.end());
  auto pairs = match_pairs(seq, sorted);
  EXPECT_EQ(pairs.size(), perm.size());  // permutation: exactly n pairs
  auto pv = lcs_parallel(pairs);
  // Compare against LIS computed directly.
  std::vector<std::uint64_t> vals(perm.begin(), perm.end());
  EXPECT_EQ(pv.length, cordon::lis::lis_parallel(vals).length);
}
