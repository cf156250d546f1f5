// Parallel convex/concave GLWS — Alg. 1 of the paper, with the concave
// merge of Alg. 2.
//
// Round structure (Sec. 4.2):
//   FindCordon  — prefix-doubling over batches of tentative states; each
//                 batch state j relaxes itself from B and binary-searches
//                 the first state it could successfully relax (its
//                 sentinel position s_j); the leftmost sentinel is the
//                 cordon.  Wasted probes are bounded by 2x the frontier.
//   UpdateBest  — FindIntervals over the newly finalized decision range
//                 rebuilds the best-decision triple list for all states
//                 past the cordon.  For concave costs the new list only
//                 accounts for new decisions, so Alg. 2 finds the cutting
//                 point p and splices it with the previous list.
//
// The FindIntervals / merge machinery lives in envelope_tools.hpp and is
// shared with the GAP algorithm (Sec. 5.2).
#include <atomic>
#include <limits>
#include <span>

#include "src/core/arena.hpp"
#include "src/core/cutoff.hpp"
#include "src/core/trace.hpp"
#include "src/glws/envelope_tools.hpp"
#include "src/glws/glws.hpp"
#include "src/parallel/primitives.hpp"
#include "src/structures/best_decision_list.hpp"

namespace cordon::glws {
namespace {

using structures::BestDecisionList;
using structures::DecisionInterval;

constexpr std::size_t kNone = BestDecisionList::kNone;

// FindCordon (Alg. 1 lines 7-18): prefix-doubling probe for the leftmost
// sentinel after `now`.  Returns cordon in (now+1, n+1].
//
// The probe body counts relaxations in a body-local integer and flushes
// once per state, so the binary search's evaluations cost a register
// increment each and the stats shard is touched twice per state.
std::size_t find_cordon(std::size_t n, std::size_t now,
                        const BestDecisionList& b, bool convex,
                        const CostFn& w, std::vector<double>& d,
                        std::span<double> ev, const EFn& e,
                        core::AtomicDpStats& stats) {
  std::size_t cordon = n + 1;
  for (std::size_t t = 1;; ++t) {
    std::size_t l = now + (std::size_t{1} << (t - 1));
    if (l > n || l >= cordon) break;
    std::size_t r = std::min(n, now + (std::size_t{1} << t) - 1);
    std::size_t hi = std::min(r, cordon - 1);

    std::atomic<std::size_t> batch_min{cordon};
    parallel::parallel_for(l, hi + 1, [&](std::size_t j) {
      std::uint64_t local_relax = 0;
      auto eval = [&](std::size_t jj, std::size_t ii) {
        ++local_relax;
        return ev[jj] + w(jj, ii);
      };
      // Relax j from its recorded best decision (tentative if unready).
      std::size_t bd = b.best_of(j);
      d[j] = eval(bd, j);
      ev[j] = e(d[j], j);

      std::size_t s = kNone;
      if (convex) {
        // Convexity: if j relaxes anything it relaxes a suffix; binary
        // search the first win against the recorded envelope.
        s = b.first_win(j, eval, j + 1);
      } else if (j + 1 <= n) {
        // Concavity: if j relaxes anything it relaxes j+1 (Sec. 4.3).
        std::size_t bn = b.best_of(j + 1);
        if (eval(j, j + 1) < eval(bn, j + 1)) s = j + 1;
      }
      if (s != kNone) {
        std::size_t cur = batch_min.load(std::memory_order_relaxed);
        while (s < cur && !batch_min.compare_exchange_weak(
                              cur, s, std::memory_order_relaxed)) {
        }
      }
      stats.add_states(1);
      stats.add_relaxations(local_relax);
    });
    cordon = std::min(cordon, batch_min.load(std::memory_order_relaxed));
    if (cordon <= r + 1 || r == n) break;
  }
  return cordon;
}

}  // namespace

GlwsResult glws_parallel(std::size_t n, double d0, const CostFn& w,
                         const EFn& e, Shape shape) {
  GlwsResult res;
  res.d.assign(n + 1, 0.0);
  res.best.assign(n + 1, 0);
  res.d[0] = d0;
  if (n == 0) return res;

  // E values are whole-run scratch (never returned): per-worker arena
  // instead of the global allocator, so repeated solves on a warm worker
  // allocate nothing here.
  core::Arena& arena = core::worker_arena();
  core::ArenaScope scratch(arena);
  std::span<double> ev = arena.make_span<double>(n + 1);
  ev[0] = e(d0, 0);
  core::AtomicDpStats stats;
  auto eval = [&](std::size_t j, std::size_t i) {
    stats.add_relaxations(1);
    return ev[j] + w(j, i);
  };
  const bool convex = shape == Shape::kConvex;

  // Initially every state's best (and only) candidate is state 0.
  BestDecisionList b(std::vector<DecisionInterval>{{1, n, 0}});
  BestDecisionList bnew;  // concave merge scratch, capacity reused per round

  // Round fusion: a round whose predecessor did almost no work (high-k
  // regimes run thousands of rounds of ~150 relaxations) is dominated by
  // fork and envelope-rebuild overhead; run it inline instead.
  std::uint64_t prev_round_relax = std::numeric_limits<std::uint64_t>::max();

  // Relaxations as of the last round boundary: one shard sum per round
  // yields both the fusion input and the next round's baseline.
  std::uint64_t relax_total = 0;

  std::size_t now = 0;
  auto round = [&] {
    std::size_t cordon =
        find_cordon(n, now, b, convex, w, res.d, ev, e, stats);

    // States now+1 .. cordon-1 are the frontier: find_cordon already
    // computed their true D/E values; record their decisions.
    parallel::parallel_for(now + 1, cordon, [&](std::size_t i) {
      res.best[i] = static_cast<std::uint32_t>(b.best_of(i));
    });

    if (cordon <= n) {
      // Rebuild B for the states past the cordon using the newly
      // finalized decisions [now+1, cordon-1].
      std::vector<DecisionInterval> fresh = coalesce(
          find_intervals(eval, now + 1, cordon - 1, cordon, n, convex));
      if (convex) {
        // Convex: every state past the cordon has its best decision among
        // the new range (Sec. 4.2.2), so the new list replaces B.
        b.assign(std::move(fresh));
      } else {
        // Concave (Alg. 2): new decisions win a prefix of [cordon, n].
        b.advance_to(cordon);
        bnew.assign(fresh);
        b.assign(coalesce(
            merge_envelopes(b, bnew, eval, cordon, n, /*convex=*/false)));
      }
    }
    now = cordon - 1;
  };
  while (now < n) {
    stats.add_round();
    telemetry::RoundSpan round_span("glws.round", stats);
    if (core::fuse_round(prev_round_relax)) {
      parallel::SequentialRegion seq;
      round();
    } else {
      round();
    }
    const std::uint64_t relax_after = stats.snapshot().relaxations;
    prev_round_relax = relax_after - relax_total;
    relax_total = relax_after;
  }
  res.stats = stats.snapshot();
  return res;
}

GlwsResult glws_auto(std::size_t n, double d0, const CostFn& w, const EFn& e,
                     Shape shape) {
  if (core::use_sequential(n, core::kGlwsSeqCutoff, core::kGlwsMinWorkers)) {
    GlwsResult r = glws_sequential(n, d0, w, e, shape);
    r.path = core::SolvePath::kSequentialCutoff;
    return r;
  }
  return glws_parallel(n, d0, w, e, shape);
}

}  // namespace cordon::glws
