// Ablation A3 (Thm 5.2): GAP — naive vs Γgap vs parallel cordon.
// Reports work counters (the naive/optimized gap is the paper's whole
// point: O(n^2 m) vs O(nm log n)) and the staircase round counts.
//
// Emits the standard scaling triple per size (production auto path,
// raw-parallel-inline, sequential) so the thread sweep can compute the
// gap family's speedup curve.  The naive oracle is skipped above
// n=1024 — its cubic relaxation count would dominate sweep wall time.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "src/gap/gap.hpp"
#include "src/parallel/random.hpp"

using namespace cordon;

namespace {

std::vector<std::uint32_t> random_string(std::size_t n, std::uint64_t seed,
                                         std::uint32_t alphabet) {
  std::vector<std::uint32_t> s(n);
  for (std::size_t i = 0; i < n; ++i)
    s[i] = static_cast<std::uint32_t>(parallel::uniform(seed, i, alphabet));
  return s;
}

}  // namespace

int main() {
  const std::size_t base = bench::env_size("CORDON_BENCH_N", 384);
  bench::print_header(
      "A3: GAP edit distance (convex gap costs)",
      "n=m     naive(s)  seq(s)    ours(s)   ours-1t(s)  path      rounds  "
      "relax(naive/seq/ours)");
  bench::JsonEmitter json("bench_gap");
  // `seconds` and `sequential_s` are each the minimum of kReps runs, so
  // the gate's comparison of the two is not decided by one noisy run.
  constexpr int kReps = 3;
  auto w1 = gap::quadratic_gap_cost(2.0, 0.05);
  auto w2 = gap::quadratic_gap_cost(2.5, 0.04);
  for (std::size_t n : {base / 4, base / 2, base}) {
    auto a = random_string(n, 5, 4);
    auto b = random_string(n, 6, 4);
    gap::GapResult nv, sv, av, pv;
    double tn = -1;
    if (n <= 1024)
      tn = bench::time_s([&] { nv = gap::gap_naive(a, b, w1, w2); });
    // Both gated series run with the pool started, as in the other
    // benches, so pool start-up lands in neither.
    parallel::ensure_started();
    double ts = bench::min_time_s(
        kReps, [&] { sv = gap::gap_seq(a, b, w1, w2, glws::Shape::kConvex); });
    // Production path (adaptive routing included) at the current pool
    // size — the series the scaling gate reads.
    double ta = bench::min_time_s(
        kReps, [&] { av = gap::gap_auto(a, b, w1, w2, glws::Shape::kConvex); });
    // The paper's "ours (1 thread)": the raw parallel algorithm inline.
    double tp1;
    {
      parallel::SequentialRegion seq_region;
      tp1 = bench::time_s(
          [&] { pv = gap::gap_parallel(a, b, w1, w2, glws::Shape::kConvex); });
    }
    bool ok = std::abs(sv.distance - av.distance) < 1e-6 &&
              (tn < 0 || std::abs(nv.distance - av.distance) < 1e-6);
    std::printf(
        "%-7zu %-9.4f %-9.4f %-9.4f %-11.4f %-9s %-7llu %llu/%llu/%llu %s\n",
        n, tn, ts, ta, tp1, core::solve_path_name(av.path),
        static_cast<unsigned long long>(av.stats.rounds),
        static_cast<unsigned long long>(nv.stats.relaxations),
        static_cast<unsigned long long>(sv.stats.relaxations),
        static_cast<unsigned long long>(av.stats.relaxations),
        ok ? "" : "MISMATCH");
    json.record_scaling({.series = "ours",
                         .n = n,
                         .seconds = ta,
                         .one_thread_s = tp1,
                         .sequential_s = ts,
                         .path = av.path,
                         .verified = ok,
                         .stats = av.stats,
                         .extra = {{"cells", (n + 1) * (n + 1)}}});
  }
  std::printf("\nShape check: naive relaxations grow ~n^3, optimized ~n^2 "
              "log n; parallel matches\nthe optimized work and finishes in "
              "rounds << n+m when the inputs align densely.\n");
  return 0;
}
