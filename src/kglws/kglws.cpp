#include "src/kglws/kglws.hpp"

#include <limits>
#include <span>

#include "src/core/arena.hpp"
#include "src/core/kernels.hpp"
#include "src/core/trace.hpp"
#include "src/kglws/smawk.hpp"
#include "src/parallel/primitives.hpp"
#include "src/parallel/scheduler.hpp"

namespace cordon::kglws {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One D&C layer: given prev[j] = D[j][k'-1], fill cur[i] = min_{j<i}
// prev[j] + w(j, i) and arg[i], for i in [il, ir] with decisions
// restricted to [jl, jr].  Total monotonicity shrinks the two recursive
// decision ranges to the midpoint's argmin (leftmost on ties).
template <typename Cost>
void layer_rec(std::span<const double> prev, std::span<double> cur,
               std::span<std::uint32_t> arg, const Cost& w, std::size_t il,
               std::size_t ir, std::size_t jl, std::size_t jr,
               core::AtomicDpStats& stats) {
  if (il > ir) return;
  std::size_t im = il + (ir - il) / 2;
  std::size_t hi = std::min(jr, im - 1);  // decisions must satisfy j < i
  // Leftmost argmin with the infinite-source skip kept as a branch: the
  // early layers are mostly infinite, and skipping their w(j, im) calls
  // (a log1p, or a type-erased call for a custom CostFn) beats a
  // branchless evaluate-everything kernel here (the array kernels assume
  // cheap loads).
  core::kernels::ArgMin best{kInf, jl};
  for (std::size_t j = jl; j <= hi; ++j) {
    if (prev[j] == kInf) continue;
    double v = prev[j] + w(j, im);
    if (v < best.value) {
      best.value = v;
      best.index = j;
    }
  }
  stats.add_relaxations(hi >= jl ? hi - jl + 1 : 0);
  stats.add_states(1);
  cur[im] = best.value;
  arg[im] = static_cast<std::uint32_t>(best.index);
  std::size_t best_j = best.value == kInf ? jl : best.index;
  auto left = [&] { layer_rec(prev, cur, arg, w, il, im - 1, jl, best_j, stats); };
  auto right = [&] { layer_rec(prev, cur, arg, w, im + 1, ir, best_j, jr, stats); };
  if (ir - il > 2048) {
    parallel::par_do(left, right);
  } else {
    left();
    right();
  }
}

// Runs all k layers with a per-layer engine over arena-backed layer
// arrays (prev / cur / arg are whole-run scratch: the result copies out
// once at the end, so repeated solves on a warm worker allocate nothing
// proportional to n here).
template <typename LayerFn>
KglwsResult run_layers(std::size_t n, std::size_t k, const LayerFn& layer) {
  KglwsResult res;
  core::Arena& arena = core::worker_arena();
  core::ArenaScope scratch(arena);
  std::span<double> prev = arena.make_span<double>(n + 1, kInf);
  std::span<double> cur = arena.make_span<double>(n + 1, kInf);
  std::span<std::uint32_t> arg = arena.make_span<std::uint32_t>(n + 1, 0u);
  prev[0] = 0.0;
  for (std::size_t kk = 1; kk <= k; ++kk) {
    ++res.stats.rounds;  // Cordon view: one frontier per layer
    telemetry::RoundSpan round_span("kglws.round", res.stats);
    layer(prev, cur, arg, res.stats);
    cur[0] = kInf;  // zero elements cannot form kk >= 1 clusters
    std::swap(prev, cur);
    std::fill(cur.begin(), cur.end(), kInf);
  }
  res.d.assign(prev.begin(), prev.end());
  res.cut.assign(arg.begin(), arg.end());
  res.total = res.d[n];
  return res;
}

}  // namespace

KglwsResult kglws_naive(std::size_t n, std::size_t k, const glws::CostFn& w) {
  return run_layers(n, k,
                    [&](std::span<const double> prev, std::span<double> cur,
                        std::span<std::uint32_t> arg, core::DpStats& stats) {
                      for (std::size_t i = 1; i <= n; ++i) {
                        cur[i] = kInf;
                        for (std::size_t j = 0; j < i; ++j) {
                          ++stats.relaxations;
                          if (prev[j] == kInf) continue;
                          double v = prev[j] + w(j, i);
                          if (v < cur[i]) {
                            cur[i] = v;
                            arg[i] = static_cast<std::uint32_t>(j);
                          }
                        }
                        ++stats.states;
                      }
                    });
}

KglwsResult kglws_smawk(std::size_t n, std::size_t k, const glws::CostFn& w) {
  return run_layers(
      n, k,
      [&](std::span<const double> prev, std::span<double> cur,
          std::span<std::uint32_t> arg, core::DpStats& stats) {
        // Rows are states 1..n, columns are decisions 0..n-1.  Entries
        // with j >= i are padded so that total monotonicity is preserved:
        // a huge value increasing with j keeps row minima to the left.
        std::uint64_t evals = 0;
        auto value = [&](std::size_t r, std::size_t c) {
          std::size_t i = r + 1, j = c;
          ++evals;
          // Pad invalid entries with values strictly increasing in j —
          // the increment must be large enough to survive double
          // rounding next to the base, or total monotonicity silently
          // degrades to ties.
          if (j >= i || prev[j] == kInf)
            return 1e15 + static_cast<double>(j) * 1e6;
          return prev[j] + w(j, i);
        };
        std::vector<std::size_t> mins = smawk_row_minima(n, n, value);
        for (std::size_t i = 1; i <= n; ++i) {
          std::size_t j = mins[i - 1];
          cur[i] = prev[j] == kInf || j >= i ? kInf : prev[j] + w(j, i);
          arg[i] = static_cast<std::uint32_t>(j);
        }
        stats.relaxations += evals;
        stats.states += n;
      });
}

KglwsResult kglws_dc(std::size_t n, std::size_t k, const glws::CostFn& w) {
  return glws::with_cost(w, [&](const auto& cost) {
    return run_layers(
        n, k,
        [&](std::span<const double> prev, std::span<double> cur,
            std::span<std::uint32_t> arg, core::DpStats& stats) {
          core::AtomicDpStats local;
          layer_rec(prev, cur, arg, cost, 1, n, 0, n - 1, local);
          core::DpStats snap = local.snapshot();
          stats.states += snap.states;
          stats.relaxations += snap.relaxations;
        });
  });
}

std::vector<std::uint32_t> kglws_backtrack(std::size_t n, std::size_t k,
                                           const glws::CostFn& w) {
  // Store every layer's argmins (O(k n) arena scratch) and chase them
  // back.
  core::Arena& arena = core::worker_arena();
  core::ArenaScope scratch(arena);
  std::span<double> prev = arena.make_span<double>(n + 1, kInf);
  std::span<double> cur = arena.make_span<double>(n + 1, kInf);
  std::span<std::uint32_t> args = arena.make_span<std::uint32_t>(k * (n + 1));
  prev[0] = 0.0;
  for (std::size_t kk = 1; kk <= k; ++kk) {
    std::span<std::uint32_t> arg = args.subspan((kk - 1) * (n + 1), n + 1);
    std::fill(arg.begin(), arg.end(), 0u);
    core::AtomicDpStats stats;
    layer_rec(prev, cur, arg, w, 1, n, 0, n - 1, stats);
    cur[0] = kInf;
    std::swap(prev, cur);
    std::fill(cur.begin(), cur.end(), kInf);
  }
  std::vector<std::uint32_t> cuts(k + 1);
  cuts[k] = static_cast<std::uint32_t>(n);
  for (std::size_t kk = k; kk >= 1; --kk)
    cuts[kk - 1] = args[(kk - 1) * (n + 1) + cuts[kk]];
  return cuts;
}

}  // namespace cordon::kglws
