// Figure 7: parallel convex GLWS (post-office problem), time vs k (the
// number of post offices in the optimal solution).  Series: "Ours",
// "Ours (1 thread)", and the sequential Γlws monotonic-queue algorithm.
//
// k is controlled by the office opening cost, exactly as the paper
// controls the output size with the weight function.  Defaults are
// CI-scale; CORDON_BENCH_N rescales.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "src/glws/costs.hpp"
#include "src/glws/glws.hpp"
#include "src/parallel/random.hpp"

using namespace cordon;

int main() {
  const std::size_t n = bench::env_size("CORDON_BENCH_N", 1u << 20);
  auto x = std::make_shared<std::vector<double>>(n + 1, 0.0);
  for (std::size_t i = 1; i <= n; ++i)
    (*x)[i] = (*x)[i - 1] + 0.5 + parallel::uniform_double(7, i);

  bench::print_header(
      "Figure 7: parallel convex GLWS (post office), time vs k",
      "open_cost   k        ours(s)   ours-1t(s)  seq(s)    path     "
      " verified  counters");
  bench::JsonEmitter json("bench_fig7_glws");
  // `seconds` and `sequential_s` are each the minimum of kReps runs, so
  // the gate's comparison of the two is not decided by one noisy run.
  constexpr int kReps = 3;

  // Sweep opening cost downward: smaller cost => more offices (larger k).
  for (double open = 1e9; open >= 1e1; open /= 100.0) {
    glws::CostFn w = glws::post_office_cost(x, open);
    glws::EFn e = glws::identity_e();
    parallel::ensure_started();
    // Production path (adaptive routing included) at the current pool
    // size — the series the scaling gate reads.
    glws::GlwsResult auto_res;
    double auto_s = bench::min_time_s(kReps, [&] {
      auto_res = glws::glws_auto(n, 0.0, w, e, glws::Shape::kConvex);
    });
    // The paper's "ours (1 thread)": the raw parallel algorithm inline.
    glws::GlwsResult par_res;
    double one;
    {
      parallel::SequentialRegion seq_region;
      one = bench::time_s([&] {
        par_res = glws::glws_parallel(n, 0.0, w, e, glws::Shape::kConvex);
      });
    }
    glws::GlwsResult seq_res;
    double seq = bench::min_time_s(kReps, [&] {
      seq_res = glws::glws_sequential(n, 0.0, w, e, glws::Shape::kConvex);
    });
    bool ok = std::abs(auto_res.d[n] - seq_res.d[n]) <=
              1e-6 * (1.0 + std::abs(seq_res.d[n]));
    // k = number of offices = length of the best-decision chain.
    std::size_t k = 0;
    for (std::size_t i = n; i != 0; i = auto_res.best[i]) ++k;
    std::printf("%-11.0e %-8zu %-9.4f %-11.4f %-9.4f %-9s %-8s", open, k,
                auto_s, one, seq, core::solve_path_name(auto_res.path),
                ok ? "yes" : "MISMATCH");
    bench::print_stats_suffix(auto_res.stats);
    std::printf("\n");
    json.record_scaling({.series = "ours",
                         .n = n,
                         .seconds = auto_s,
                         .one_thread_s = one,
                         .sequential_s = seq,
                         .path = auto_res.path,
                         .verified = ok,
                         .stats = auto_res.stats,
                         .extra = {{"k", k}}});
  }
  std::printf(
      "\nShape check (paper): sequential time ~flat in k (O(n log n) work); "
      "parallel time grows\nwith k (span O(k log^2 n)); crossover moves "
      "right as n grows.  rounds == k (Thm 4.1).\n");
  return 0;
}
