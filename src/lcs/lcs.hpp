// Sparse Longest Common Subsequence (Sec. 3, Thm 3.2).
//
// The sparsification [7, 40, 51, 56]: only states (i, j) with
// A[i] == B[j] matter (L such "match pairs"), and LCS is the longest
// chain of pairs increasing in both coordinates.
//
//   * lcs_naive      — O(nm) grid DP (oracle),
//   * lcs_sparse_seq — Hunt–Szymanski-style O(L log n) over match pairs,
//   * lcs_parallel   — the Cordon Algorithm (Thm 3.2): sort pairs by
//     (i asc, j desc); each round a tournament tree extracts the pairs on
//     the cordon (prefix minima of the j keys), which are exactly the
//     states with LCS value = round number.  O(L log n) work,
//     O(k log n) span where k is the LCS length.
//
// In that order LCS over the pairs is LIS over their j stream (Sec. 3),
// so all three sparse entry points, and the session frontier, run the
// key-stream core of src/lis/lis.hpp.
//
// The pre-processing that finds match pairs is provided, as in the paper,
// which leaves it out of its timings.  Solver::solve pays it on every
// call: a flat symbol index over b (BIndex), then a parallel pass over
// blocks of a that writes the j stream alone.  At |a| = |b| = 10^6 over
// 5*10^5 symbols (L = 2*10^6 pairs; Release, 4 workers on a 4-vCPU
// x86-64 host) match_pairs_j takes 0.035-0.038 s, 0.019-0.023 s of it
// for the sequential index build, next to 0.057-0.062 s for
// lcs_sparse_seq on those pairs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/csr.hpp"
#include "src/core/dp_stats.hpp"

namespace cordon::lcs {

struct MatchPair {
  std::uint32_t i;  // position in A
  std::uint32_t j;  // position in B
};

/// Match pairs stored struct-of-arrays: the two coordinate streams live
/// in separate contiguous arrays, in the same (i asc, j desc) order as
/// the AoS form.  The cordon rounds and the patience loop read ONLY the
/// j stream, so keeping j densely packed halves the bandwidth per probe
/// versus interleaved {i, j} records.  The i stream is touched only by
/// witness recovery; a solve that recovers none builds j alone
/// (match_pairs_j).
struct MatchPairsSoA {
  std::vector<std::uint32_t> i, j;

  [[nodiscard]] std::size_t size() const noexcept { return j.size(); }
  [[nodiscard]] bool empty() const noexcept { return j.empty(); }
};

/// Symbols of `a` per emission task.  The three emitters below count
/// each block's match pairs, prefix-sum the counts and write the blocks
/// in parallel, each at its offset, so their output is the same at every
/// pool size.
inline constexpr std::size_t kEmitBlock = 4096;

/// All (i, j) with a[i] == b[j], sorted by (i asc, j desc) — the order
/// the cordon algorithm consumes.  |result| = L.
[[nodiscard]] std::vector<MatchPair> match_pairs(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);

/// SoA variant of match_pairs — same pairs, same order, coordinate
/// streams split.
[[nodiscard]] MatchPairsSoA match_pairs_soa(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);

/// The j stream of match_pairs alone: all a solve reads (Solver::solve
/// feeds it to lcs_auto).
[[nodiscard]] std::vector<std::uint32_t> match_pairs_j(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);

struct LcsResult {
  std::uint32_t length = 0;
  core::DpStats stats;
  /// For the sparse algorithms: dp[p] = LCS of prefixes (a[0..i_p],
  /// b[0..j_p]) that *ends at* pair p, aligned with the match_pairs order.
  std::vector<std::uint32_t> pair_dp;
  core::SolvePath path = core::SolvePath::kParallel;  // set by lcs_auto
};

/// O(nm) grid DP over recurrence (3) (oracle).
[[nodiscard]] LcsResult lcs_naive(const std::vector<std::uint32_t>& a,
                                  const std::vector<std::uint32_t>& b);

/// Sparse sequential O(L log n) over pre-computed pairs.
[[nodiscard]] LcsResult lcs_sparse_seq(const std::vector<MatchPair>& pairs);
[[nodiscard]] LcsResult lcs_sparse_seq(const MatchPairsSoA& pairs);

/// Cordon Algorithm over pre-computed pairs (Thm 3.2).
/// stats.rounds == LCS length.
[[nodiscard]] LcsResult lcs_parallel(const std::vector<MatchPair>& pairs);
[[nodiscard]] LcsResult lcs_parallel(const MatchPairsSoA& pairs);

/// Production entry point over the j stream of the match pairs:
/// lcs_sparse_seq when effective parallelism is below
/// core::kLisMinWorkers or L (the pair count) is under
/// core::kLisSeqCutoff (the pair lis_auto routes on), lcs_parallel
/// otherwise.  The routing decision is recorded in LcsResult::path.
/// Both produce the same pair_dp semantics (LCS value ending at pair p).
[[nodiscard]] LcsResult lcs_auto(std::span<const std::uint32_t> js);

/// One optimal chain of match pairs (an LCS witness), recovered from the
/// per-pair DP values of either sparse algorithm.  Returned in chain
/// order (increasing i and j); length == res.length.  O(L) scan.
[[nodiscard]] std::vector<MatchPair> recover_chain(
    const std::vector<MatchPair>& pairs, const LcsResult& res);
[[nodiscard]] std::vector<MatchPair> recover_chain(const MatchPairsSoA& pairs,
                                                   const LcsResult& res);

// --- append-resumable frontier (solve sessions) -----------------------------

/// Positions of every symbol in the fixed reference sequence `b`
/// (j ascending per symbol): an open-addressing symbol -> bucket table
/// over one CSR of positions.  Every u32 is a valid symbol, so empty
/// slots are marked in the bucket half of a slot, never by a key value.
/// Immutable once built — session versions share one index behind a
/// shared_ptr; growing `b` invalidates it and forces a cold re-solve
/// (the restricted update model).
class BIndex {
 public:
  explicit BIndex(const std::vector<std::uint32_t>& b);

  /// The positions j with b[j] == symbol, ascending; empty if absent.
  [[nodiscard]] std::span<const std::uint32_t> positions(
      std::uint32_t symbol) const noexcept;
  [[nodiscard]] std::size_t b_size() const noexcept {
    return buckets_.items.size();  // every position sits in one bucket
  }

 private:
  std::vector<std::uint64_t> slots_;  // bucket << 32 | symbol
  core::Csr buckets_;                 // bucket -> positions in b
  unsigned shift_ = 0;                // 64 - log2(slots_.size())
};

/// Hunt–Szymanski thresholds after consuming a prefix of `a` against a
/// fixed `b`: thresholds[k] is the smallest j ending a common chain of
/// length k+1.  Appending to `a` appends match pairs at the END of the
/// (i asc, j desc) pair stream, so the thresholds array is exactly the
/// suffix-re-solve state — O(LCS) space, O(new pairs · log) per append,
/// and bitwise the same lengths as lcs_sparse_seq over the full pair
/// stream.
struct LcsFrontier {
  std::vector<std::uint32_t> thresholds;
  std::uint64_t a_consumed = 0;
  std::uint64_t pairs_consumed = 0;

  [[nodiscard]] std::uint32_t length() const noexcept {
    return static_cast<std::uint32_t>(thresholds.size());
  }
};

/// Feeds `count` appended `a` symbols through the frontier in place,
/// emitting their match pairs against `index` in (i asc, j desc) order.
void lcs_extend(LcsFrontier& f, const BIndex& index,
                const std::uint32_t* a_suffix, std::size_t count,
                core::DpStats& stats);

}  // namespace cordon::lcs
