// Optimal Alphabetic Tree (Sec. 5.1, Thm 5.1, Appendix A).
//
// Given leaf weights a[0..n-1], find the binary tree with those leaves in
// order minimizing sum a_i * depth_i.
//
//   * oat_dp_cost      — O(n^2) Knuth-style interval DP (oracle, small n),
//   * oat_garsia_wachs — the classic two-phase sequential algorithm:
//     phase 1 builds the l-tree by repeatedly combining the leftmost
//     locally minimal pair and reinserting the parent; phase 2 rebuilds
//     the alphabetic tree from the leaf levels.  Reinsertion is a search
//     in a balanced max-tree over list order (src/oat/gw_list.hpp), so
//     the whole run is O(n log n) (Garsia and Wachs, 1977),
//   * oat_parallel     — the phase-parallel scheme of Larmore et al. [72]
//     that the paper accelerates: every round combines *all* disjoint
//     locally minimal pairs at once and reinserts the whole batch with
//     one parallel max-tree search per parent over a flat array, O(m
//     log m) work for a round on m nodes.  It finds a tree of the same
//     cost as Garsia–Wachs; when weights or pair sums tie, its l-tree
//     (the leaf levels) can differ.  stats.rounds counts the
//     phase-parallel rounds.  The 1-valley/convex-LWS acceleration of
//     Appendix A (which bounds rounds by O(log n) on adversarial inputs)
//     is not implemented (docs/ARCHITECTURE.md, "Substitutions"); this
//     implementation exposes the same experimental quantities (rounds,
//     height, work) the paper's analysis is parameterized by.
//
// The three phase-1 bodies (Garsia–Wachs, Hu–Tucker, oat_parallel)
// throw std::invalid_argument unless every weight is finite and so is
// the sum of their magnitudes (detail::check_weights).
//
// Work counters: stats.states counts combines (Garsia–Wachs) or the
// working-list length summed over rounds (oat_parallel), and
// stats.relaxations counts the max-tree nodes the reinsertion searches
// visit, plus the trigger scan's steps in oat_garsia_wachs.
//
// Lemma 5.1 utilities: oat height is O(log W) for positive integer
// weights of word size W (tests/bench A4 check this).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/dp_stats.hpp"

namespace cordon::oat {

struct OatResult {
  std::vector<std::uint32_t> levels;  // depth of each leaf in the OAT
  double cost = 0;                    // sum a_i * levels_i
  std::uint32_t height = 0;           // max level
  core::DpStats stats;
};

/// O(n^2) interval-DP optimal cost (Knuth-range speedup); oracle.
[[nodiscard]] double oat_dp_cost(const std::vector<double>& weights);

/// Sequential Garsia–Wachs.
[[nodiscard]] OatResult oat_garsia_wachs(const std::vector<double>& weights);

/// Sequential Hu–Tucker [53]: the original OAT algorithm.  This is the
/// textbook variant that repeatedly combines the minimum-sum
/// *compatible* pair (only transparent/internal nodes may sit between
/// the two), O(n^2) worst case — kept as an independent baseline whose
/// l-tree levels must agree with Garsia–Wachs.
[[nodiscard]] OatResult oat_hu_tucker(const std::vector<double>& weights);

/// Phase-parallel all-locally-minimal-pairs rounds ([72] base scheme).
[[nodiscard]] OatResult oat_parallel(const std::vector<double>& weights);

/// Phase 2: rebuilds an explicit alphabetic tree from leaf levels.
/// Returns, for each of the n-1 internal nodes, its children as signed
/// ids: value >= 0 -> leaf index, value < 0 -> internal node ~value.
/// The last internal node is the root.  Validates that the level
/// sequence is realizable (throws std::invalid_argument otherwise).
struct AlphabeticTree {
  std::vector<std::int32_t> left;
  std::vector<std::int32_t> right;
  [[nodiscard]] std::size_t num_internal() const noexcept {
    return left.size();
  }
};
[[nodiscard]] AlphabeticTree tree_from_levels(
    const std::vector<std::uint32_t>& levels);

namespace detail {

/// One combine of phase 1: the children of the node it made.  Over n
/// leaves, node ids [0, n) are the leaves and combine k makes node n + k.
struct Combine {
  std::uint32_t left;
  std::uint32_t right;
};

/// Throws std::invalid_argument unless every weight is finite and so is
/// the sum of their magnitudes, so that every node weight a run forms
/// is finite.  A NaN pair sum satisfies no comparison: it marks no
/// pair, and no node, not even the +inf tail, ends a scan or search
/// for it, so the bodies would loop forever or run off their arrays.
void check_weights(const std::vector<double>& weights);

/// Sets res.levels (each leaf's depth in the combine forest; the last
/// combine is the root), res.cost and res.height.
void set_levels(OatResult& res, const std::vector<double>& weights,
                std::span<const Combine> combines);

}  // namespace detail

}  // namespace cordon::oat
