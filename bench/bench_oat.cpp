// Ablation A4 (Thm 5.1 / Lemma 5.1): OAT — Garsia-Wachs vs the
// phase-parallel rounds scheme; height vs weight word size.  Each size is
// one point of oat's thread-scaling curve (record_scaling), which
// scripts/check_scaling.py gates.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "src/oat/oat.hpp"
#include "src/parallel/random.hpp"

using namespace cordon;

int main() {
  const std::size_t n = bench::env_size("CORDON_BENCH_N", 1u << 16);

  bench::print_header("A4a: OAT rounds and times (random integer weights)",
                      "n        gw(s)     par(s)    par-1t(s)  1t/par  "
                      "rounds   height  verified");
  bench::JsonEmitter json("bench_oat");
  // Each time is the minimum of kReps runs, so the gate's comparison of
  // `seconds` with `sequential_s` is not decided by one noisy run.
  constexpr int kReps = 3;
  parallel::ensure_started();
  for (std::size_t sz : {n / 4, n / 2, n}) {
    std::vector<double> w(sz);
    for (std::size_t i = 0; i < sz; ++i)
      w[i] = static_cast<double>(1 + parallel::uniform(3, i, 1u << 20));
    oat::OatResult gw, pv, one;
    double tg =
        bench::min_time_s(kReps, [&] { gw = oat::oat_garsia_wachs(w); });
    double tp = bench::min_time_s(kReps, [&] { pv = oat::oat_parallel(w); });
    // The paper's "ours (1 thread)": the same rounds, every fork inline.
    double t1;
    {
      parallel::SequentialRegion seq_region;
      t1 = bench::min_time_s(kReps, [&] { one = oat::oat_parallel(w); });
    }
    // Ties may give the two bodies different l-trees of one cost
    // (src/oat/oat.hpp), so the cost is what must match.
    auto same_cost = [&](const oat::OatResult& r) {
      return std::abs(r.cost - gw.cost) <= 1e-12 * gw.cost;
    };
    bool ok = same_cost(pv) && same_cost(one) && pv.levels == one.levels;
    std::printf("%-8zu %-9.4f %-9.4f %-10.4f %-7.2f %-8llu %-7u %s\n", sz, tg,
                tp, t1, t1 / tp,
                static_cast<unsigned long long>(pv.stats.rounds), pv.height,
                ok ? "yes" : "MISMATCH");
    json.record_scaling({.series = "ours",
                         .n = sz,
                         .seconds = tp,
                         .one_thread_s = t1,
                         .sequential_s = tg,
                         .path = core::SolvePath::kParallel,
                         .verified = ok,
                         .stats = pv.stats,
                         .extra = {}});
  }

  bench::print_header("A4b: Lemma 5.1 — OAT height vs weight word size W",
                      "W(bits)  height   3*log2(total)+3 (bound)");
  for (unsigned bits : {1u, 4u, 8u, 16u, 24u}) {
    const std::size_t sz = 1u << 14;
    std::vector<double> w(sz);
    double total = 0;
    for (std::size_t i = 0; i < sz; ++i) {
      w[i] = static_cast<double>(1 + parallel::uniform(9, i, 1ull << bits));
      total += w[i];
    }
    auto gw = oat::oat_garsia_wachs(w);
    std::printf("%-8u %-8u %.1f\n", bits, gw.height,
                3.0 * std::log2(total) + 3.0);
  }
  std::printf("\nShape check: height grows with log W, not with n "
              "(Lemma 5.1); parallel rounds\nfar below the n-1 sequential "
              "combines on random inputs; gw and par times grow\nas "
              "n log n.\n");
  return 0;
}
