// Longest Increasing Subsequence (Sec. 3, Thm 3.1).
//
// Four entry points over one recurrence
//   D[i] = max{1, max_{j<i, A[j]<A[i]} D[j] + 1}:
//   * lis_naive       — the textbook O(n^2) evaluation (test oracle),
//   * lis_sequential  — the optimized O(n log k) algorithm [65]: the
//     patience frontier (smallest tail per chain length) binary-searched
//     once per state — the same step lis_extend runs for sessions,
//   * lis_parallel    — the Cordon Algorithm: each round extracts the
//     prefix-minimum elements (the states whose tentative value cannot be
//     improved) with a tournament tree; round r finalizes exactly the
//     states with D = r.  Work O(n log k), span O(k log n); a perfect
//     parallelization of the sequential algorithm,
//   * lis_auto        — the production route between the last two.
//
// All but the oracle run the key-stream core declared below, which sparse
// LCS (src/lcs/) shares: LCS over match pairs sorted by (i asc, j desc)
// is LIS over their j stream (Sec. 3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/audit.hpp"
#include "src/core/dp_stats.hpp"

namespace cordon::lis {

struct LisResult {
  std::vector<std::uint32_t> dp;  // D[i] = LIS length ending at i
  std::uint32_t length = 0;       // max D
  core::DpStats stats;
  core::SolvePath path = core::SolvePath::kParallel;  // set by lis_auto
};

/// O(n^2) reference evaluation of the recurrence.
[[nodiscard]] LisResult lis_naive(const std::vector<std::uint64_t>& a);

/// Optimized sequential algorithm: O(n log k) patience search over the
/// frontier of smallest chain tails (k = LIS length; the Γ whose
/// parallelization Thm 3.1 analyzes).
[[nodiscard]] LisResult lis_sequential(const std::vector<std::uint64_t>& a);

/// Cordon Algorithm with a tournament tree (Thm 3.1).
/// stats.rounds == LIS length (the perfect depth of the DP DAG).
[[nodiscard]] LisResult lis_parallel(const std::vector<std::uint64_t>& a);

/// Production entry point: lis_sequential when effective parallelism is
/// below core::kLisMinWorkers or n is under core::kLisSeqCutoff,
/// lis_parallel otherwise.  The decision is recorded in LisResult::path;
/// dp is the same either way.
[[nodiscard]] LisResult lis_auto(const std::vector<std::uint64_t>& a);

/// One longest strictly increasing subsequence (indices into `a`),
/// reconstructed from per-state DP values in one backward scan.
[[nodiscard]] std::vector<std::size_t> lis_witness(
    const std::vector<std::uint64_t>& a, const LisResult& res);

// --- key-stream core (shared with sparse LCS) -------------------------------
//
// Key is std::uint64_t (LIS values) or std::uint32_t (the LCS j stream);
// lis.cpp instantiates both.  dp[p] is the length of the longest strictly
// increasing chain of keys ending at position p, and every path counts
// one state and one relaxation per key.

/// One patience step: `key` replaces the first tail >= key (or extends
/// the longest chain past the end), and the slot it lands in is the
/// length of the longest strictly increasing chain ending at it, minus
/// one.  `tails` stays strictly increasing.
///
/// The search is std::lower_bound without its branch (Khuong and Morin,
/// "Array Layouts for Comparison-Based Searching", 2017): on random keys
/// each probe's outcome is a coin flip, so a branching search mispredicts
/// about half its probes, and those stalls were most of the patience
/// loop's time.  Here each probe's outcome is arithmetic, not a jump: the
/// loop runs ceil(log2 |tails|) times for any key, and only the final
/// push/overwrite branches, on an outcome (a new longest chain) that is
/// rare and predictable.
template <typename Key>
std::uint32_t patience_push(std::vector<Key>& tails, Key key) {
  // The slot lies in [lo, lo + len]; each step keeps the half holding it.
  const Key* t = tails.data();
  std::size_t lo = 0, len = tails.size();
  while (len > 1) {
    const std::size_t half = len / 2;
    lo += static_cast<std::size_t>(t[lo + half - 1] < key) * half;
    len -= half;
  }
  if (len == 1) lo += static_cast<std::size_t>(t[lo] < key);
  const auto slot = static_cast<std::uint32_t>(lo);
  if (slot == tails.size())
    tails.push_back(key);
  else
    tails[slot] = key;
  // Only one slot changed, so its two neighbours certify sortedness.
  CORDON_DCHECK(slot == 0 || tails[slot - 1] < tails[slot],
                "patience tails lost sortedness (left)");
  CORDON_DCHECK(slot + 1 >= tails.size() || tails[slot] < tails[slot + 1],
                "patience tails lost sortedness (right)");
  return slot;
}

/// The patience loop over the whole stream: O(n log k).
template <typename Key>
[[nodiscard]] LisResult keys_sequential(std::span<const Key> keys);

/// Cordon rounds: a tournament tree extracts the prefix minima of the
/// active keys, and round r finalizes exactly the keys with dp = r.
/// Light rounds run inline (round fusion, core::kFuseRelax).
/// `round_span` names each round's trace span.
template <typename Key>
[[nodiscard]] LisResult keys_parallel(std::span<const Key> keys,
                                      const char* round_span);

/// The routing decision lis_auto and lcs_auto share.
template <typename Key>
[[nodiscard]] LisResult keys_auto(std::span<const Key> keys,
                                  const char* round_span);

// --- append-resumable frontier (solve sessions) -----------------------------

/// Patience frontier: tails[k] is the smallest value ending a strictly
/// increasing subsequence of length k+1 among the `consumed` elements so
/// far.  tails is strictly increasing, O(LIS) space, and — unlike the
/// per-state dp array — absorbing one appended element costs O(log LIS):
/// exactly the state an append-only session checkpoints.  The LIS length
/// of any extension never depends on dropped information, so
/// lis_extend(frontier of a) ++ suffix == lis(a ++ suffix) exactly.
struct LisFrontier {
  std::vector<std::uint64_t> tails;
  std::uint64_t consumed = 0;

  [[nodiscard]] std::uint32_t length() const noexcept {
    return static_cast<std::uint32_t>(tails.size());
  }
};

/// Feeds `count` appended values through the frontier in place.
/// O(count log LIS); stats counts one state and one relaxation per value
/// (matching the sequential algorithm's accounting unit).
void lis_extend(LisFrontier& f, const std::uint64_t* values,
                std::size_t count, core::DpStats& stats);

}  // namespace cordon::lis
