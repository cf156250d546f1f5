// Phase-parallel OAT ([72] base scheme; Sec. 5.1 / Appendix A).
//
// The working sequence is a flat array of node ids.  Each round:
//   1. computes all 2-sums and marks every locally minimal pair (strict
//      on the left, non-strict on the right, so marked pairs are
//      disjoint), and makes each marked pair a parent node,
//   2. packs the survivors (the nodes in no marked pair) with a scan; a
//      pair's gap is the index of the first survivor after it,
//   3. builds a max-tree over the survivors' weights, with +inf at the
//      tail, and gives every parent its slot in parallel: the first
//      survivor at or after its gap whose weight is at least its own,
//   4. sorts the parents by (slot, weight ascending, later pair first on
//      equal weight) and scatters the next array with prefix offsets.
// Steps 3-4 put every parent where reinserting the round's parents left
// to right with the Garsia–Wachs scan would: each gap's inserted parents
// stay sorted and none is heavier than the survivor that closes the gap,
// so earlier parents never change a later parent's slot; they only fix
// the order inside it.
//
// Combining disjoint locally minimal pairs gives a tree of the same cost
// as sequential Garsia–Wachs (Larmore et al.), but when weights or pair
// sums tie its l-tree can differ from GW's.
//
// Rounds (stats.rounds) are the phase-parallel span driver: for random
// weights rounds ~ O(log n); monotone weight sequences degrade to O(n)
// rounds, which is exactly the case the paper's 1-valley + convex-LWS
// machinery (Appendix A) addresses — see docs/ARCHITECTURE.md
// ("Substitutions") for the substitution note and bench A4 for the
// measured round counts.
#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <span>

#include "src/core/arena.hpp"
#include "src/core/trace.hpp"
#include "src/oat/oat.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/parallel/sort.hpp"

namespace cordon::oat {
namespace {

using detail::Combine;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Rounds on fewer nodes run every loop inline: at the service's n = 1000
// forking costs more than it saves.
constexpr std::size_t kInlineRound = 4096;

// The pack scan's block: each block's survivors and pairs are counted,
// the counts are scanned, then each block is walked again from its
// offsets.  A power of two, so whole max-tree subtrees also fold per
// block.
constexpr std::size_t kBlock = 2048;

// Node weights (leaves, then parents in creation order) and the combine
// that made each parent.
struct Forest {
  std::span<double> w;
  std::span<Combine> combines;
  std::uint32_t n = 0;     // leaves; combine k makes node n + k
  std::uint32_t made = 0;  // combines so far

  std::uint32_t make(std::uint32_t x, std::uint32_t y) {
    const std::uint32_t z = n + made;
    w[z] = w[x] + w[y];
    combines[made++] = {x, y};
    return z;
  }
};

// A parent made this round: its reinsertion slot (its gap until the
// search runs), node id and weight.
struct Parent {
  std::uint32_t slot;
  std::uint32_t id;
  double w;
};

// The order GW's reinsertion leaves the parents of one round in: by slot,
// then lighter first, and on equal weight the later pair (larger id)
// first, since each scan stops at the first node at least as heavy.
constexpr auto slot_order = [](const Parent& a, const Parent& b) {
  if (a.slot != b.slot) return a.slot < b.slot;
  if (a.w != b.w) return a.w < b.w;
  return a.id > b.id;
};

// First leaf index at or after `from` whose value is >= w, in a max-tree
// whose `leaves` leaves sit at tree[leaves, 2 * leaves); some leaf at or
// after `from` must hold +inf.  Adds the nodes it reads to `visited`.
std::uint32_t first_at_least(std::span<const double> tree, std::size_t leaves,
                             std::uint32_t from, double w,
                             std::uint64_t& visited) {
  std::size_t v = leaves + from;
  ++visited;
  if (tree[v] >= w) return from;
  // Climb to the nearest subtree to the right that holds a large enough
  // value...
  do {
    while (v & 1) v >>= 1;
    ++v;
    ++visited;
  } while (tree[v] < w);
  // ...and descend to its leftmost such leaf.
  while (v < leaves) {
    v *= 2;
    ++visited;
    if (tree[v] < w) ++v;
  }
  return static_cast<std::uint32_t>(v - leaves);
}

// Sorted-list fast path.  On a non-decreasing working list the leftmost
// locally minimal pair is always the first two elements and reinsertion
// keeps the list sorted — Garsia-Wachs degenerates to Huffman's two-queue
// algorithm (and the all-LMP rounds to one combine per round, the [72]
// worst case).  Drain it directly; the honest span of this phase is the
// dependency depth of the combines (level k pairs depend only on level
// k-1), which Lemma 5.1 bounds by O(log W) — we add exactly that measured
// depth to the rounds.
void drain_sorted(std::span<const std::uint32_t> leaves, Forest& f,
                  core::AtomicDpStats& stats, core::Arena& arena) {
  const std::size_t m = leaves.size();
  const std::uint32_t first = f.n + f.made;  // the first id made here
  // combined[ch, ce) is sorted; depth[id - first] is a made node's
  // combine depth in this phase.
  std::span<std::uint32_t> combined = arena.make_span<std::uint32_t>(m - 1);
  std::span<std::uint32_t> depth = arena.make_span<std::uint32_t>(m - 1);
  std::size_t lh = 0, ch = 0, ce = 0;
  std::uint32_t max_depth = 0;
  auto depth_of = [&](std::uint32_t v) {
    return v >= first ? depth[v - first] : 0u;
  };
  auto take = [&]() {
    bool from_combined =
        ch < ce && (lh >= m ||
                    // Ties prefer the combined node: reinsertion places a
                    // new parent *before* equal-weight elements.
                    f.w[combined[ch]] <= f.w[leaves[lh]]);
    return from_combined ? combined[ch++] : leaves[lh++];
  };
  while ((m - lh) + (ce - ch) > 1) {
    std::uint32_t x = take();
    std::uint32_t y = take();
    std::uint32_t z = f.make(x, y);
    depth[z - first] = std::max(depth_of(x), depth_of(y)) + 1;
    max_depth = std::max(max_depth, depth[z - first]);
    // Insert before any equal-weight combined suffix (sums are
    // non-decreasing, so z belongs at or near the back).
    std::size_t at = ce;
    while (at > ch && f.w[combined[at - 1]] >= f.w[z]) --at;
    std::copy_backward(combined.begin() + static_cast<std::ptrdiff_t>(at),
                       combined.begin() + static_cast<std::ptrdiff_t>(ce),
                       combined.begin() + static_cast<std::ptrdiff_t>(ce + 1));
    combined[at] = z;
    ++ce;
  }
  stats.add_states(m);
  // The phase's parallel span: one round per combine level.
  for (std::uint32_t r = 1; r < max_depth; ++r) stats.add_round();
  if (max_depth > 1)
    telemetry::count(telemetry::Counter::kSolverRounds, max_depth - 1);
}

// A working sequence: node ids with their weights alongside, so a round
// streams the weights instead of gathering them by id.
struct Seq {
  std::span<std::uint32_t> id;
  std::span<double> w;
};

// One all-locally-minimal-pairs round over cur[0, m): writes the next
// working sequence to the front of `next` and returns its length.
std::size_t combine_round(const Seq& cur, std::size_t m, const Seq& next,
                          Forest& f, core::AtomicDpStats& stats,
                          core::Arena& arena) {
  const bool inline_round = m < kInlineRound;
  const std::size_t gran = inline_round ? m : 0;  // 0: auto granularity
  const std::size_t blocks = (m + kBlock - 1) / kBlock;
  const std::size_t block_gran = inline_round ? blocks : 1;
  const std::span<const double> cw = cur.w;

  // (p, p + 1) is a locally minimal pair when its 2-sum is below the one
  // on its left and at most the one on its right.
  auto sum = [&](std::size_t p) { return cw[p] + cw[p + 1]; };
  auto marked = [&](std::size_t p) {
    if (p + 1 >= m) return false;
    const double s = sum(p);
    return (p == 0 || s < sum(p - 1)) && (p + 2 >= m || s <= sum(p + 1));
  };
  // visit(q, pair, survivor) for every q of block b, in order: `pair`
  // when (q, q + 1) is marked, `survivor` when q is in no marked pair.
  auto walk = [&](std::size_t b, const auto& visit) {
    const std::size_t lo = b * kBlock, hi = std::min(m, lo + kBlock);
    bool left = lo > 0 && marked(lo - 1);
    for (std::size_t q = lo; q < hi; ++q) {
      const bool pair = marked(q);
      visit(q, pair, !pair && !left);
      left = pair;
    }
  };

  // Survivors and pairs before each block.
  std::span<std::uint32_t> surv_at =
      arena.make_span<std::uint32_t>(blocks + 1);
  std::span<std::uint32_t> pair_at =
      arena.make_span<std::uint32_t>(blocks + 1);
  parallel::parallel_for(
      0, blocks,
      [&](std::size_t b) {
        std::uint32_t survivors = 0, pairs = 0;
        walk(b, [&](std::size_t, bool pair, bool survivor) {
          survivors += survivor;
          pairs += pair;
        });
        surv_at[b + 1] = survivors;
        pair_at[b + 1] = pairs;
      },
      block_gran);
  surv_at[0] = pair_at[0] = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    surv_at[b + 1] += surv_at[b];
    pair_at[b + 1] += pair_at[b];
  }
  const std::uint32_t s = surv_at[blocks], k = pair_at[blocks];

  // Pack the survivors and make the parents.  The max-tree's leaf j is
  // survivor j's weight, leaf s is +inf and the padding after it -inf.
  const std::size_t leaves = std::bit_ceil(std::size_t{s} + 1);
  std::span<double> tree = arena.make_span<double>(2 * leaves);
  std::span<std::uint32_t> surv = arena.make_span<std::uint32_t>(s);
  std::span<Parent> par = arena.make_span<Parent>(k);
  parallel::parallel_for(
      0, blocks,
      [&](std::size_t b) {
        std::uint32_t j = surv_at[b], r = pair_at[b];
        walk(b, [&](std::size_t q, bool pair, bool survivor) {
          if (pair) {
            const std::uint32_t id = f.n + f.made + r;
            f.w[id] = sum(q);
            f.combines[f.made + r] = {cur.id[q], cur.id[q + 1]};
            par[r++] = {j, id, f.w[id]};
          } else if (survivor) {
            surv[j] = cur.id[q];
            tree[leaves + j++] = cw[q];
          }
        });
      },
      block_gran);
  // Each block of leaves folds its own subtree; the nodes above the
  // blocks fold inline.
  const std::size_t fold = std::min(leaves, kBlock);
  parallel::parallel_for(
      0, leaves / fold,
      [&](std::size_t b) {
        for (std::size_t j = std::max<std::size_t>(b * fold, s);
             j < (b + 1) * fold; ++j)
          tree[leaves + j] = j == s ? kInf : -kInf;
        for (std::size_t lo = (leaves + b * fold) / 2, width = fold / 2;
             width > 0; lo /= 2, width /= 2)
          for (std::size_t v = lo; v < lo + width; ++v)
            tree[v] = std::max(tree[2 * v], tree[2 * v + 1]);
      },
      inline_round ? leaves / fold : 1);
  for (std::size_t v = leaves / fold; v-- > 1;)
    tree[v] = std::max(tree[2 * v], tree[2 * v + 1]);

  parallel::parallel_for(
      0, k,
      [&](std::size_t r) {
        std::uint64_t visited = 0;
        par[r].slot = first_at_least(tree, leaves, par[r].slot, par[r].w,
                                     visited);
        stats.add_relaxations(visited);
      },
      gran);
  parallel::sort(par, arena.make_span<Parent>(k), slot_order);

  // Parent r lands after the r parents and `slot` survivors before it;
  // survivor j after the j survivors and the parents whose slot is <= j.
  parallel::parallel_for(
      0, k,
      [&](std::size_t r) {
        next.id[r + par[r].slot] = par[r].id;
        next.w[r + par[r].slot] = par[r].w;
      },
      gran);
  const std::size_t surv_blocks = (s + kBlock - 1) / kBlock;
  parallel::parallel_for(
      0, surv_blocks,
      [&](std::size_t b) {
        const std::size_t lo = b * kBlock;
        const std::size_t hi = std::min<std::size_t>(s, lo + kBlock);
        auto g = static_cast<std::size_t>(
            std::ranges::partition_point(
                par, [&](const Parent& p) { return p.slot <= lo; }) -
            par.begin());
        for (std::size_t j = lo; j < hi; ++j) {
          while (g < k && par[g].slot <= j) ++g;
          next.id[g + j] = surv[j];
          next.w[g + j] = tree[leaves + j];
        }
      },
      inline_round ? surv_blocks : 1);
  f.made += k;
  return std::size_t{s} + k;
}

}  // namespace

OatResult oat_parallel(const std::vector<double>& weights) {
  detail::check_weights(weights);
  const std::size_t n = weights.size();
  OatResult res;
  if (n == 0) return res;
  if (n == 1) {
    res.levels = {0};
    return res;
  }

  core::AtomicDpStats stats;
  // The forest and the two working sequences live for the whole solve;
  // each round's scratch is carved after them and rewound at its end.
  core::Arena& arena = core::worker_arena();
  core::ArenaScope scratch(arena);
  Forest f{arena.make_span<double>(2 * n - 1),
           arena.make_span<Combine>(n - 1), static_cast<std::uint32_t>(n)};
  std::copy(weights.begin(), weights.end(), f.w.begin());
  Seq cur{arena.make_span<std::uint32_t>(n), arena.make_span<double>(n)};
  Seq next{arena.make_span<std::uint32_t>(n), arena.make_span<double>(n)};
  std::iota(cur.id.begin(), cur.id.end(), 0u);
  std::copy(weights.begin(), weights.end(), cur.w.begin());

  for (std::size_t m = n; m > 1;) {
    stats.add_round();
    telemetry::RoundSpan round_span("oat.round", stats);
    core::ArenaScope round_scope(arena);
    if (std::ranges::is_sorted(cur.w.first(m))) {
      drain_sorted(cur.id.first(m), f, stats, arena);
      break;
    }
    stats.add_states(m);
    m = combine_round(cur, m, next, f, stats, arena);
    std::swap(cur, next);
  }

  detail::set_levels(res, weights, f.combines);
  res.stats = stats.snapshot();
  return res;
}

}  // namespace cordon::oat
