// Phase-parallel OAT ([72] base scheme; Sec. 5.1 / Appendix A).
//
// Each round:
//   1. snapshot the working list and compute all 2-sums,
//   2. mark every locally minimal pair (strict on the left, non-strict on
//      the right, so marked pairs are disjoint) — Larmore et al. prove
//      combining any set of disjoint locally minimal pairs yields the
//      same l-tree as sequential Garsia–Wachs,
//   3. combine the marked pairs and reinsert each parent with the GW
//      rightward-scan rule, left to right.
//
// Rounds (stats.rounds) are the phase-parallel span driver: for random
// weights rounds ~ O(log n); monotone weight sequences degrade to O(n)
// rounds, which is exactly the case the paper's 1-valley + convex-LWS
// machinery (Appendix A) addresses — see docs/ARCHITECTURE.md
// ("Substitutions") for the substitution note and bench A4 for the
// measured round counts.
#include <span>

#include "src/core/arena.hpp"
#include "src/core/trace.hpp"
#include "src/oat/gw_list.hpp"
#include "src/oat/oat.hpp"
#include "src/parallel/primitives.hpp"

namespace cordon::oat {

OatResult oat_parallel(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  OatResult res;
  if (n == 0) return res;
  if (n == 1) {
    res.levels = {0};
    return res;
  }

  detail::GwList list(weights);
  core::AtomicDpStats stats;
  // Round scratch: snapshot/pending are reused push targets (high-water
  // capacity retained); sums/marked are dense per-round arrays carved
  // from the worker arena and rewound every round.
  core::Arena& arena = core::worker_arena();
  core::ArenaScope scratch(arena);
  std::vector<std::uint32_t> snapshot;

  struct Pending {
    std::uint32_t z;
    std::uint32_t anchor;  // surviving node just left of the pair's gap
  };
  std::vector<Pending> pending;

  bool drained = false;
  while (list.size() > 1 && !drained) {
    stats.add_round();
    telemetry::RoundSpan round_span("oat.round", stats);
    core::ArenaScope round_scope(arena);
    const std::size_t m = list.size();
    snapshot.clear();
    snapshot.reserve(m);  // lint: allow-alloc (high-water scratch, reused across rounds)
    for (std::uint32_t v = list.first(); !list.is_sentinel(v);
         v = list.next(v))
      snapshot.push_back(v);  // lint: allow-alloc (within reserved capacity)

    // Sorted-list fast path.  On a non-decreasing working list the
    // leftmost locally minimal pair is always the first two elements and
    // reinsertion keeps the list sorted — Garsia-Wachs degenerates to
    // Huffman's two-queue algorithm (and the all-LMP rounds above to one
    // combine per round, the [72] worst case).  Drain it directly; the
    // honest span of this phase is the dependency depth of the combines
    // (level k pairs depend only on level k-1), which Lemma 5.1 bounds
    // by O(log W) — we add exactly that measured depth to the rounds.
    {
      bool sorted = true;
      for (std::size_t p = 0; p + 1 < m && sorted; ++p)
        if (list.weight(snapshot[p]) > list.weight(snapshot[p + 1]))
          sorted = false;
      if (sorted) {
        std::vector<std::uint32_t> leaves(snapshot);
        std::vector<std::uint32_t> combined;  // sorted; consumed from head
        std::size_t lh = 0, ch = 0;           // queue heads
        std::vector<std::uint32_t> depth_of(2 * list.arena_size() + 2, 0);
        std::uint32_t max_depth = 0;
        auto take = [&]() {
          bool from_combined =
              ch < combined.size() &&
              (lh >= leaves.size() ||
               // Ties prefer the combined node: reinsertion places a new
               // parent *before* equal-weight elements.
               list.weight(combined[ch]) <= list.weight(leaves[lh]));
          return from_combined ? combined[ch++] : leaves[lh++];
        };
        while ((leaves.size() - lh) + (combined.size() - ch) > 1) {
          std::uint32_t x = take();
          std::uint32_t y = take();
          std::uint32_t z = list.make_parent(x, y);
          if (z >= depth_of.size()) depth_of.resize(z + 1, 0);  // lint: allow-alloc (rare: fresh parent ids only)
          depth_of[z] = std::max(depth_of[x], depth_of[y]) + 1;
          max_depth = std::max(max_depth, depth_of[z]);
          // Insert before any equal-weight combined suffix (sums are
          // non-decreasing, so z belongs at or near the back).
          std::size_t at = combined.size();
          while (at > ch && list.weight(combined[at - 1]) >= list.weight(z))
            --at;
          combined.insert(combined.begin() + static_cast<std::ptrdiff_t>(at),
                          z);
        }
        stats.add_states(m);
        // The phase's parallel span: one round per combine level.
        for (std::uint32_t r = 1; r < max_depth; ++r) stats.add_round();
        if (max_depth > 1)
          telemetry::count(telemetry::Counter::kSolverRounds, max_depth - 1);
        drained = true;
        continue;
      }
    }

    std::span<double> sums = arena.make_span<double>(m - 1);
    parallel::parallel_for(0, m - 1, [&](std::size_t p) {
      sums[p] = list.weight(snapshot[p]) + list.weight(snapshot[p + 1]);
    });
    std::span<std::uint8_t> marked = arena.make_span<std::uint8_t>(m - 1);
    parallel::parallel_for(0, m - 1, [&](std::size_t p) {
      bool left_ok = p == 0 || sums[p] < sums[p - 1];
      bool right_ok = p + 2 >= m || sums[p] <= sums[p + 1];
      marked[p] = left_ok && right_ok;
    });
    stats.add_states(m);

    // First combine (unlink) every marked pair, then reinsert the new
    // parents left to right — exactly the [72] round structure.  A
    // reinsertion scan must start at the first *surviving* node after
    // its pair, since the node right after may itself have been combined.
    pending.clear();
    auto removed = [&](std::size_t q) {
      return marked[q] != 0 || (q > 0 && marked[q - 1] != 0);
    };
    for (std::size_t p = 0; p + 1 < m; ++p) {
      if (!marked[p]) continue;
      std::uint32_t z = list.combine(snapshot[p]);
      // Nearest surviving snapshot node left of the pair (head if none).
      std::uint32_t anchor = list.head();
      for (std::size_t q = p; q > 0; --q) {
        if (!removed(q - 1)) {
          anchor = snapshot[q - 1];
          break;
        }
      }
      pending.push_back({z, anchor});  // lint: allow-alloc (high-water scratch, reused across rounds)
    }
    // Reinsert left to right.  Scanning starts at the gap's *current*
    // successor (next of the left anchor), so parents inserted by earlier
    // pairs of this round are seen exactly as the sequential rule demands.
    std::uint64_t scanned = 0;
    for (const Pending& pd : pending)
      scanned += list.reinsert(pd.z, list.next(pd.anchor));
    stats.add_relaxations(scanned);
  }

  res.levels = list.leaf_levels(n);
  for (std::size_t i = 0; i < n; ++i) {
    res.cost += weights[i] * res.levels[i];
    res.height = std::max(res.height, res.levels[i]);
  }
  res.stats = stats.snapshot();
  return res;
}

}  // namespace cordon::oat
