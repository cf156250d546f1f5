// Ablation A1 (Thm 3.1): LIS cordon rounds == k, work stays O(n log k)
// across input shapes with wildly different parallelism.  Each shape is
// also one point of lis's thread-scaling curve (record_scaling), which
// scripts/check_scaling.py gates.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "src/lis/lis.hpp"
#include "src/parallel/random.hpp"

using namespace cordon;

int main() {
  const std::size_t n = bench::env_size("CORDON_BENCH_N", 1u << 21);
  bench::print_header("A1: LIS rounds == k across input shapes",
                      "shape        k        ours(s)   ours-1t(s)  seq(s) "
                      "   path               verified  counters (1t)");
  bench::JsonEmitter json("bench_lis");

  // Each time is the minimum of kReps runs, so the gate's comparison of
  // `seconds` with `sequential_s` is not decided by one noisy run.
  constexpr int kReps = 3;
  auto run = [&](const char* shape, const std::vector<std::uint64_t>& a) {
    parallel::ensure_started();
    // Production path (routing included) at the current pool size — the
    // series the scaling gate reads.
    lis::LisResult auto_res;
    double auto_s =
        bench::min_time_s(kReps, [&] { auto_res = lis::lis_auto(a); });
    // The paper's "ours (1 thread)": the raw parallel algorithm inline.
    lis::LisResult par_res;
    double one;
    {
      parallel::SequentialRegion seq_region;
      one = bench::min_time_s(kReps, [&] { par_res = lis::lis_parallel(a); });
    }
    lis::LisResult seq_res;
    double seq =
        bench::min_time_s(kReps, [&] { seq_res = lis::lis_sequential(a); });
    bool ok = auto_res.dp == seq_res.dp && par_res.dp == seq_res.dp;
    std::printf("%-12s %-8u %-9.4f %-11.4f %-9.4f %-18s %-9s", shape,
                auto_res.length, auto_s, one, seq,
                core::solve_path_name(auto_res.path), ok ? "yes" : "MISMATCH");
    bench::print_stats_suffix(par_res.stats);
    std::printf("\n");
    json.record_scaling({.series = "ours",
                         .n = a.size(),
                         .seconds = auto_s,
                         .one_thread_s = one,
                         .sequential_s = seq,
                         .path = auto_res.path,
                         .verified = ok,
                         .stats = auto_res.stats,
                         .extra = {{"shape", shape},
                                   {"k", static_cast<std::size_t>(
                                             auto_res.length)}}});
  };

  std::vector<std::uint64_t> a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = parallel::hash64(3, i);
  run("random", a);
  for (std::size_t i = 0; i < n; ++i) a[i] = n - i;
  run("decreasing", a);
  // Sawtooth with period p: k == n/p segments... actually k == p
  // (one rising run can be extended across teeth only by increasing
  // values); keeps k mid-range.
  for (std::size_t i = 0; i < n; ++i) a[i] = (i % 1024) * n + (i / 1024);
  run("sawtooth", a);
  // Fully increasing input is the zero-parallelism worst case (rounds ==
  // n); run it at reduced size so the bench stays fast.
  a.resize(n / 16);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = i;
  run("increasing", a);
  return 0;
}
