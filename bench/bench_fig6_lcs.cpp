// Figure 6: parallel sparse LCS running time vs k (the LCS length), for
// two densities L of match pairs.  Series: "Ours" (parallel) and
// "Ours (1 thread)" — pre-processing (pair generation) is excluded from
// the timings, as in the paper.
//
// Workload: the paper controls L and k on random strings; we control
// them exactly by planting k antidiagonal bands of L/k pairs each —
// pairs within one band form an antichain (no two are chainable), and
// consecutive bands are chainable, so the LCS length is exactly k.
// Defaults are CI-scale; CORDON_BENCH_N rescales to paper scale.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "src/lcs/lcs.hpp"
#include "src/parallel/random.hpp"

using namespace cordon;

namespace {

// L pairs in k antidiagonal bands over an n x n grid: LCS == min(k, ...).
std::vector<lcs::MatchPair> banded_pairs(std::size_t n, std::size_t total,
                                         std::size_t k, std::uint64_t seed) {
  std::vector<lcs::MatchPair> pairs;
  pairs.reserve(total);
  std::size_t per_band = total / k;
  std::size_t step = n / k;
  std::size_t spread = step > 2 ? step / 2 : 1;
  for (std::size_t b = 0; b < k; ++b) {
    std::size_t center = b * step + step / 2;
    // Antidiagonal: i + j == 2 * center, i in [center-spread, center+spread).
    for (std::size_t p = 0; p < per_band; ++p) {
      std::size_t off = parallel::uniform(seed, b * per_band + p, 2 * spread);
      std::size_t i = center - spread + off;
      std::size_t j = 2 * center - i;
      if (i < n && j < n)
        pairs.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j)});
    }
  }
  // Algorithms need (i asc, j desc) order.
  std::sort(pairs.begin(), pairs.end(),
            [](const lcs::MatchPair& a, const lcs::MatchPair& b) {
              return a.i != b.i ? a.i < b.i : a.j > b.j;
            });
  return pairs;
}

}  // namespace

int main() {
  const std::size_t n = bench::env_size("CORDON_BENCH_N", 1u << 20);
  bench::print_header("Figure 6: parallel sparse LCS, time vs k",
                      "L        k        ours(s)   ours-1t(s)  seq-HS(s) "
                      " path      verified  counters");
  bench::JsonEmitter json("bench_fig6_lcs");
  // `seconds` and `sequential_s` are each the minimum of kReps runs, so
  // the gate's comparison of the two is not decided by one noisy run.
  constexpr int kReps = 3;
  for (std::size_t l_mult : {1, 4}) {
    std::size_t total = n * l_mult;
    for (std::size_t k = 64; k <= n / 16; k *= 8) {
      auto aos = banded_pairs(n, total, k, 42 + k);
      // The solvers consume the SoA form (split once, outside timings;
      // Solver::solve builds the j stream alone with match_pairs_j).
      lcs::MatchPairsSoA pairs;
      pairs.i.reserve(aos.size());
      pairs.j.reserve(aos.size());
      for (const lcs::MatchPair& p : aos) {
        pairs.i.push_back(p.i);
        pairs.j.push_back(p.j);
      }
      parallel::ensure_started();
      // Production path (adaptive routing included) at the current pool
      // size — the series the scaling gate reads.
      lcs::LcsResult auto_res;
      double auto_s =
          bench::min_time_s(kReps, [&] { auto_res = lcs::lcs_auto(pairs.j); });
      // The paper's "ours (1 thread)": the raw parallel algorithm inline.
      lcs::LcsResult par_res;
      double one;
      {
        parallel::SequentialRegion seq_region;
        one = bench::time_s([&] { par_res = lcs::lcs_parallel(pairs); });
      }
      lcs::LcsResult seq_res;
      double seq = bench::min_time_s(
          kReps, [&] { seq_res = lcs::lcs_sparse_seq(pairs); });
      bool ok = auto_res.length == seq_res.length;
      std::printf("%-8zu %-8zu %-9.4f %-11.4f %-9.4f  %-9s %-8s",
                  pairs.size(), static_cast<std::size_t>(auto_res.length),
                  auto_s, one, seq, core::solve_path_name(auto_res.path),
                  ok ? "yes" : "MISMATCH");
      bench::print_stats_suffix(auto_res.stats);
      std::printf("\n");
      json.record_scaling(
          {.series = "ours",
           .n = n,
           .seconds = auto_s,
           .one_thread_s = one,
           .sequential_s = seq,
           .path = auto_res.path,
           .verified = ok,
           .stats = auto_res.stats,
           .extra = {{"L", pairs.size()},
                     {"k", static_cast<std::size_t>(auto_res.length)}}});
    }
  }
  std::printf("\nShape check (paper): parallel competitive with sequential "
              "until k becomes extreme;\nwork counters stay O(L log n) "
              "independent of k; rounds == k.\n");
  return 0;
}
