// LIS: naive / optimized-sequential / parallel agreement + Thm 3.1
// structural properties (rounds == LIS length, work bounds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/cutoff.hpp"
#include "src/lis/lis.hpp"
#include "src/parallel/random.hpp"
#include "src/parallel/scheduler.hpp"
#include "test_util.hpp"

using cordon::lis::lis_naive;
using cordon::lis::lis_parallel;
using cordon::lis::lis_sequential;

struct LisCase {
  std::size_t n;
  std::uint64_t seed;
  std::uint64_t bound;  // value range controls duplicate density
};

class LisSweep : public ::testing::TestWithParam<LisCase> {};

TEST_P(LisSweep, AllThreeAlgorithmsAgreePerState) {
  auto [n, seed, bound] = GetParam();
  auto a = cordon::testing::random_values(n, seed, bound);
  auto nv = lis_naive(a);
  auto sv = lis_sequential(a);
  auto pv = lis_parallel(a);
  EXPECT_EQ(nv.length, sv.length);
  EXPECT_EQ(nv.length, pv.length);
  ASSERT_EQ(nv.dp.size(), sv.dp.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(nv.dp[i], sv.dp[i]) << i;
    ASSERT_EQ(nv.dp[i], pv.dp[i]) << i;
  }
  // Thm 3.1: the cordon algorithm runs exactly LIS-length rounds.
  EXPECT_EQ(pv.stats.rounds, pv.length);
  // Work efficiency: every state is touched exactly once.
  EXPECT_EQ(pv.stats.states, n);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LisSweep,
    ::testing::Values(LisCase{1, 1, 10}, LisCase{2, 2, 2}, LisCase{10, 3, 5},
                      LisCase{100, 4, 1000}, LisCase{100, 5, 7},
                      LisCase{1000, 6, 1000000}, LisCase{1000, 7, 3},
                      LisCase{5000, 8, 50}));

TEST(Lis, EmptyInput) {
  std::vector<std::uint64_t> a;
  EXPECT_EQ(lis_parallel(a).length, 0u);
  EXPECT_EQ(lis_sequential(a).length, 0u);
}

TEST(Lis, StrictlyIncreasingIsWholeSequence) {
  std::vector<std::uint64_t> a(300);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = i * 2;
  auto pv = lis_parallel(a);
  EXPECT_EQ(pv.length, a.size());
  EXPECT_EQ(pv.stats.rounds, a.size());  // worst-case depth: no parallelism
}

TEST(Lis, DecreasingFinishesInOneRound) {
  std::vector<std::uint64_t> a(300);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 1000 - i;
  auto pv = lis_parallel(a);
  EXPECT_EQ(pv.length, 1u);
  EXPECT_EQ(pv.stats.rounds, 1u);  // perfect parallelism
}

TEST(Lis, AllEqualValues) {
  std::vector<std::uint64_t> a(50, 42);
  auto pv = lis_parallel(a);
  EXPECT_EQ(pv.length, 1u);  // strictly increasing => duplicates break chains
  EXPECT_EQ(lis_naive(a).length, 1u);
}

TEST(Lis, WitnessIsAValidIncreasingSubsequence) {
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    auto a = cordon::testing::random_values(500, seed, 40);  // many dups
    auto res = lis_parallel(a);
    auto wit = cordon::lis::lis_witness(a, res);
    ASSERT_EQ(wit.size(), res.length);
    for (std::size_t k = 1; k < wit.size(); ++k) {
      ASSERT_LT(wit[k - 1], wit[k]);          // increasing indices
      ASSERT_LT(a[wit[k - 1]], a[wit[k]]);    // strictly increasing values
    }
  }
}

TEST(Lis, AutoRecordsItsRouteAndKeepsDp) {
  // n is above kLisSeqCutoff, so the pool size alone picks the route:
  // the patience loop below kLisMinWorkers, the rounds at or above it
  // (test_thread_sweep pins both sides at pool sizes 4 and 8).
  auto a = cordon::testing::random_values(6000, 12, 3000);
  ASSERT_GE(a.size(), cordon::core::kLisSeqCutoff);
  auto sv = lis_sequential(a);
  const bool parallel = cordon::parallel::effective_parallelism() >=
                        cordon::core::kLisMinWorkers;
  auto got = cordon::lis::lis_auto(a);
  auto pv = lis_parallel(a);
  EXPECT_EQ(got.path, parallel ? cordon::core::SolvePath::kParallel
                               : cordon::core::SolvePath::kSequentialCutoff);
  EXPECT_EQ(pv.path, cordon::core::SolvePath::kParallel);
  for (const auto* r : {&got, &pv}) {
    EXPECT_EQ(r->dp, sv.dp);
    EXPECT_EQ(r->length, sv.length);
    EXPECT_EQ(r->stats.states, a.size());
    EXPECT_EQ(r->stats.relaxations, a.size());
  }
  EXPECT_EQ(got.stats.rounds, parallel ? sv.length : 0u);
  EXPECT_EQ(pv.stats.rounds, sv.length);
}

TEST(Lis, SequentialWorkIsOnePerState) {
  auto a = cordon::testing::random_values(2000, 11, 100000);
  auto sv = lis_sequential(a);
  EXPECT_EQ(sv.stats.relaxations, a.size());  // one effective edge per state
}

namespace {

// The slot std::lower_bound finds: the one patience_push must land in.
template <typename Key>
std::uint32_t lower_bound_slot(const std::vector<Key>& tails, Key key) {
  return static_cast<std::uint32_t>(
      std::lower_bound(tails.begin(), tails.end(), key) - tails.begin());
}

// One patience step checked against std::lower_bound: the same slot,
// and `tails` changed in that slot alone.
template <typename Key>
void expect_step_matches(const std::vector<Key>& tails, Key key) {
  const std::uint32_t want = lower_bound_slot(tails, key);
  std::vector<Key> got = tails;
  ASSERT_EQ(cordon::lis::patience_push(got, key), want)
      << "len=" << tails.size() << " key=" << key;
  std::vector<Key> expect = tails;
  if (want == expect.size())
    expect.push_back(key);
  else
    expect[want] = key;
  ASSERT_EQ(got, expect) << "len=" << tails.size() << " key=" << key;
}

template <typename Key>
void check_every_probe() {
  constexpr Key kMax = std::numeric_limits<Key>::max();
  for (std::size_t len = 0; len <= 130; ++len) {
    // Tails 3k+1 leave room below, between and above each one; the
    // second layout pins the ends at 0 and the type's maximum.
    std::vector<Key> spaced(len), pinned(len);
    for (std::size_t k = 0; k < len; ++k)
      spaced[k] = pinned[k] = static_cast<Key>(3 * k + 1);
    if (len > 0) pinned.front() = 0;
    if (len > 1) pinned.back() = kMax;
    for (const std::vector<Key>* tails : {&spaced, &pinned}) {
      std::vector<Key> probes{0, kMax};
      for (Key t : *tails) {
        if (t > 0) probes.push_back(t - 1);
        probes.push_back(t);
        if (t < kMax) probes.push_back(t + 1);
      }
      for (Key key : probes) expect_step_matches(*tails, key);
    }
  }
}

template <typename Key>
void check_random_streams() {
  const std::size_t n = 100000;
  for (std::uint64_t bound : {std::uint64_t{2}, std::uint64_t{3},
                              std::uint64_t{n / 2}}) {
    const auto values = cordon::testing::random_values(n, 41 + bound, bound);
    std::vector<Key> got, want;
    for (std::size_t p = 0; p < n; ++p) {
      const auto key = static_cast<Key>(values[p]);
      const std::uint32_t slot = lower_bound_slot(want, key);
      if (slot == want.size())
        want.push_back(key);
      else
        want[slot] = key;
      ASSERT_EQ(cordon::lis::patience_push(got, key), slot)
          << "bound=" << bound << " p=" << p;
    }
    EXPECT_EQ(got, want) << "bound=" << bound;
  }
}

}  // namespace

TEST(Lis, PatienceStepMatchesLowerBoundOnEveryProbe) {
  // Every tails length up to 130, so the search's halvings meet every
  // remainder, and every kind of key: below, equal to, between and
  // above each tail, plus 0 and the maximum.
  check_every_probe<std::uint64_t>();
  check_every_probe<std::uint32_t>();
}

TEST(Lis, PatienceStepMatchesLowerBoundOnRandomStreams) {
  // Slot by slot over 10^5 keys, from the all-duplicates regime (two or
  // three values) to mostly distinct keys.
  check_random_streams<std::uint64_t>();
  check_random_streams<std::uint32_t>();
}
