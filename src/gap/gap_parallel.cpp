// Parallel GAP via the Cordon Algorithm (Sec. 5.2, Thm 5.2).
//
// The finalized region is always down-closed under (i', j') <= (i, j)
// componentwise, i.e. a staircase: front[i] = first unfinalized column of
// row i is non-increasing in i.  Each round:
//
//   1. synchronized prefix-doubling: every row extends a probe window
//      right of its front; a probed state computes its tentative value
//      from the *finalized* row/column envelopes (and the diagonal if its
//      source is finalized) and places sentinels:
//        (a) row-wise  — first state it would relax in its row,
//        (b) column-wise — first state it would relax in its column,
//        (c) diagonal  — on itself, if A[i]==B[j] but (i-1,j-1) is
//            tentative;
//      sentinel (x, y) blocks everything >= (x, y), which a per-substep
//      prefix-min over the rows' caps implements in O(n);
//   2. rows finalize [front[i], cap[i]); the per-row and per-column
//      best-decision lists are rebuilt with FindIntervals and spliced
//      onto the old envelopes with the generalized Alg. 2 merge.
//
// Caps stay non-increasing across rows at every substep, which is what
// makes the probe sound: a tentative state outside every window can only
// relax states that are themselves outside every window.
#include <atomic>
#include <limits>
#include <optional>
#include <span>
#include <utility>

#include "src/core/arena.hpp"
#include "src/core/cutoff.hpp"
#include "src/core/trace.hpp"
#include "src/gap/gap.hpp"
#include "src/glws/envelope_tools.hpp"
#include "src/parallel/primitives.hpp"

namespace cordon::gap {
namespace {

using glws::Shape;
using structures::BestDecisionList;
using structures::DecisionInterval;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = BestDecisionList::kNone;

struct Grid {
  std::size_t n, m;
  std::vector<double> d;  // (n+1) x (m+1)

  double& at(std::size_t i, std::size_t j) { return d[i * (m + 1) + j]; }
  [[nodiscard]] double get(std::size_t i, std::size_t j) const {
    return d[i * (m + 1) + j];
  }
};

}  // namespace

GapResult gap_parallel(const std::vector<std::uint32_t>& a,
                       const std::vector<std::uint32_t>& b,
                       const glws::CostFn& w1, const glws::CostFn& w2,
                       glws::Shape shape) {
  const std::size_t n = a.size(), m = b.size();
  const bool convex = shape == Shape::kConvex;
  GapResult res;
  res.rows = n + 1;
  res.cols = m + 1;

  Grid g{n, m, std::vector<double>((n + 1) * (m + 1), kInf)};
  g.at(0, 0) = 0.0;
  core::AtomicDpStats stats;

  // Row envelope of row i: decisions are finalized columns j' of row i,
  // eval(j', j) = D[i][j'] + w2(j', j).  Column envelope symmetric.
  auto row_eval = [&](std::size_t i) {
    return [&, i](std::size_t jp, std::size_t j) {
      stats.add_relaxations(1);
      return g.get(i, jp) + w2(jp, j);
    };
  };
  auto col_eval = [&](std::size_t j) {
    return [&, j](std::size_t ip, std::size_t i) {
      stats.add_relaxations(1);
      return g.get(ip, j) + w1(ip, i);
    };
  };

  std::vector<BestDecisionList> row_b(n + 1), col_b(m + 1);
  // Per-row/-column merge temporaries, hoisted so every round's envelope
  // splice reuses warm SoA capacity instead of allocating three fresh
  // arrays per row (safe in the parallel loops below: row i / column j
  // only ever touches its own slot).
  std::vector<BestDecisionList> row_tmp(n + 1), col_tmp(m + 1);

  // Whole-run and per-round dense scratch comes from the worker's arena:
  // each round rewinds to `round_mark` instead of freeing, so the steady
  // state of the round loop performs no heap allocation for any of the
  // cap / window / front bookkeeping below.
  core::Arena& arena = core::worker_arena();
  core::ArenaScope scratch(arena);
  std::span<std::size_t> front = arena.make_span<std::size_t>(n + 1, std::size_t{0});
  std::span<std::size_t> new_front = arena.make_span<std::size_t>(n + 1, std::size_t{0});
  std::span<std::size_t> colfront = arena.make_span<std::size_t>(m + 1, std::size_t{0});
  front[0] = 1;  // (0,0) is the boundary state
  colfront[0] = 1;
  if (m >= 1) row_b[0].assign({{1, m, 0}});
  if (n >= 1) col_b[0].assign({{1, n, 0}});

  auto done = [&] {
    for (std::size_t i = 0; i <= n; ++i)
      if (front[i] <= m) return false;
    return true;
  };

  // Round fusion: near the end of a run the staircase often advances by
  // a handful of cells per round; forking the row/column envelope loops
  // for that is pure overhead.  The previous round's measured relaxation
  // count decides whether the next round runs inline.
  std::uint64_t prev_round_relax = std::numeric_limits<std::uint64_t>::max();
  // Relaxations as of the last round boundary: one shard sum per round
  // yields both the fusion input and the next round's baseline.
  std::uint64_t relax_total = 0;

  while (!done()) {
    stats.add_round();
    telemetry::RoundSpan round_span("gap.round", stats);
    std::optional<parallel::SequentialRegion> fuse_guard;
    if (core::fuse_round(prev_round_relax)) fuse_guard.emplace();
    core::ArenaScope round_scope(arena);
    // Relaxed atomic caps over a plain arena span via atomic_ref — the
    // CAS loop below is the only cross-thread access.
    std::span<std::size_t> cap =
        arena.make_span<std::size_t>(n + 1, m + 1);
    std::span<std::size_t> checked = arena.make_span<std::size_t>(n + 1);
    for (std::size_t i = 0; i <= n; ++i)
      checked[i] = front[i] == 0 ? 0 : front[i] - 1;
    // checked[i] = last probed column (front[i]-1 means "none yet").
    // Special case front[i]==0: use a sentinel meaning none probed.
    std::span<std::uint8_t> none_checked =
        arena.make_span<std::uint8_t>(n + 1, std::uint8_t{1});
    // Per-substep probe windows, refilled each substep.  (A plain struct:
    // std::pair's user-provided assignment makes it non-trivial, which
    // the arena rejects.)
    struct Window {
      std::size_t lo, hi;
    };
    std::span<Window> span = arena.make_span<Window>(n + 1);

    auto lower_cap = [&](std::size_t row, std::size_t col) {
      std::atomic_ref<std::size_t> c(cap[row]);
      std::size_t cur = c.load(std::memory_order_relaxed);
      while (col < cur &&
             !c.compare_exchange_weak(cur, col, std::memory_order_relaxed)) {
      }
    };
    auto load_cap = [&](std::size_t row) {
      return std::atomic_ref<std::size_t>(cap[row])
          .load(std::memory_order_relaxed);
    };

    for (std::size_t t = 1;; ++t) {
      // Probe windows: row i extends to front[i] + 2^t - 2, clamped by
      // its cap and the grid.
      bool any = false;
      for (std::size_t i = 0; i <= n; ++i) span[i] = {1, 0};
      for (std::size_t i = 0; i <= n; ++i) {
        std::size_t c = load_cap(i);
        if (front[i] > m || c <= front[i]) continue;
        std::size_t lo = none_checked[i] ? front[i] : checked[i] + 1;
        std::size_t hi =
            std::min({m, c - 1, front[i] + (std::size_t{1} << t) - 2});
        if (lo > hi) continue;
        span[i] = {lo, hi};
        any = true;
      }
      if (!any) break;

      parallel::parallel_for(0, n + 1, [&](std::size_t i) {
        auto [lo, hi] = span[i];
        if (lo > hi) return;
        // Body-local counting: one shard flush per probed window instead
        // of one per cost evaluation (the probe loop is the bulk of all
        // relaxations).
        std::uint64_t local_relax = 0;
        auto reval = [&](std::size_t jp, std::size_t j) {
          ++local_relax;
          return g.get(i, jp) + w2(jp, j);
        };
        for (std::size_t j = lo; j <= hi; ++j) {
          auto ceval = [&](std::size_t ip, std::size_t ii) {
            ++local_relax;
            return g.get(ip, j) + w1(ip, ii);
          };
          double v = kInf;
          std::size_t rb = row_b[i].best_of(j);
          if (rb != kNone) v = std::min(v, reval(rb, j));
          std::size_t cb = col_b[j].best_of(i);
          if (cb != kNone) v = std::min(v, ceval(cb, i));
          if (i >= 1 && j >= 1 && a[i - 1] == b[j - 1]) {
            if (j - 1 < front[i - 1]) {
              v = std::min(v, g.get(i - 1, j - 1));
            } else {
              lower_cap(i, j);  // diagonal source tentative: sentinel here
            }
          }
          g.at(i, j) = v;
          if (v == kInf) continue;  // cannot relax anyone yet

          // Row-wise sentinel.
          if (!row_b[i].empty()) {
            std::size_t s;
            if (convex) {
              s = row_b[i].first_win(j, reval, j + 1);
            } else {
              s = kNone;
              if (j + 1 <= m && j + 1 >= row_b[i].cover_lo()) {
                std::size_t bn = row_b[i].best_of(j + 1);
                if (bn != kNone && reval(j, j + 1) < reval(bn, j + 1))
                  s = j + 1;
              }
            }
            if (s != kNone) lower_cap(i, s);
          } else if (j + 1 <= m) {
            lower_cap(i, j + 1);  // no envelope yet: block conservatively
          }
          // Column-wise sentinel.
          if (!col_b[j].empty()) {
            std::size_t s;
            if (convex) {
              s = col_b[j].first_win(i, ceval, i + 1);
            } else {
              s = kNone;
              if (i + 1 <= n && i + 1 >= col_b[j].cover_lo()) {
                std::size_t bn = col_b[j].best_of(i + 1);
                if (bn != kNone && ceval(i, i + 1) < ceval(bn, i + 1))
                  s = i + 1;
              }
            }
            if (s != kNone) lower_cap(s, j);
          } else if (i + 1 <= n) {
            lower_cap(i + 1, j);
          }
        }
        stats.add_states(hi - lo + 1);
        stats.add_relaxations(local_relax);
      });

      // Staircase clamp: sentinel (x, y) blocks every row below at
      // column y and beyond.  (Sequential: the parallel_for above joined,
      // so plain accesses are ordered after every CAS.)
      for (std::size_t i = 1; i <= n; ++i) {
        if (cap[i - 1] < cap[i]) cap[i] = cap[i - 1];
      }
      for (std::size_t i = 0; i <= n; ++i) {
        auto [lo, hi] = span[i];
        if (lo > hi) continue;
        checked[i] = hi;
        none_checked[i] = 0;
      }
    }

    // Finalize [front[i], cap[i]) per row and rebuild envelopes.
    for (std::size_t i = 0; i <= n; ++i)
      new_front[i] = std::max(front[i], std::min(cap[i], m + 1));

    // Row envelopes.
    parallel::parallel_for(0, n + 1, [&](std::size_t i) {
      std::size_t f0 = front[i], f1 = new_front[i];
      if (f1 == f0 || f1 > m) {
        if (f1 > m) row_b[i].assign({});
        return;
      }
      auto reval = row_eval(i);
      std::size_t dlo = f0 == 0 ? 0 : f0;
      std::vector<DecisionInterval> fresh = glws::coalesce(
          glws::find_intervals(reval, dlo, f1 - 1, f1, m, convex));
      if (row_b[i].empty()) {
        row_b[i].assign(fresh);
      } else {
        row_b[i].advance_to(f1);
        BestDecisionList& bnew = row_tmp[i];
        bnew.assign(fresh);
        row_b[i].assign(glws::coalesce(
            glws::merge_envelopes(row_b[i], bnew, reval, f1, m, convex)));
      }
    });

    // Column envelopes: column j gained rows [colfront[j], c1) where c1 =
    // first row with new_front <= j (new_front is non-increasing).
    parallel::parallel_for(0, m + 1, [&](std::size_t j) {
      // Binary search: rows 0..c1-1 have new_front > j.
      std::size_t lo = 0, hi = n + 1;
      while (lo < hi) {
        std::size_t mid = lo + (hi - lo) / 2;
        if (new_front[mid] > j)
          lo = mid + 1;
        else
          hi = mid;
      }
      std::size_t c1 = lo, c0 = colfront[j];
      if (c1 == c0) return;
      colfront[j] = c1;
      if (c1 > n) {
        col_b[j].assign({});
        return;
      }
      auto ceval = col_eval(j);
      std::vector<DecisionInterval> fresh = glws::coalesce(
          glws::find_intervals(ceval, c0, c1 - 1, c1, n, convex));
      if (col_b[j].empty()) {
        col_b[j].assign(fresh);
      } else {
        col_b[j].advance_to(c1);
        BestDecisionList& bnew = col_tmp[j];
        bnew.assign(fresh);
        col_b[j].assign(glws::coalesce(
            glws::merge_envelopes(col_b[j], bnew, ceval, c1, n, convex)));
      }
    });

    std::swap(front, new_front);  // new_front is fully rewritten next round
    const std::uint64_t relax_after = stats.snapshot().relaxations;
    prev_round_relax = relax_after - relax_total;
    relax_total = relax_after;
  }

  res.d = std::move(g.d);
  res.distance = res.at(n, m);
  res.stats = stats.snapshot();
  return res;
}

GapResult gap_auto(const std::vector<std::uint32_t>& a,
                   const std::vector<std::uint32_t>& b, const glws::CostFn& w1,
                   const glws::CostFn& w2, glws::Shape shape) {
  const std::size_t cells = (a.size() + 1) * (b.size() + 1);
  if (core::use_sequential(cells, core::kGapSeqCutoff, core::kGapMinWorkers)) {
    GapResult r = gap_seq(a, b, w1, w2, shape);
    r.path = core::SolvePath::kSequentialCutoff;
    return r;
  }
  return gap_parallel(a, b, w1, w2, shape);
}

}  // namespace cordon::gap
