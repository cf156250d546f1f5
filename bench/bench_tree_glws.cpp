// Ablation A7 (Thm 5.3): Tree-GLWS across tree shapes.  Each shape is one
// point of treeglws's thread-scaling curve (record_scaling), which
// scripts/check_scaling.py gates: the production solve (`tree_glws_auto`,
// the journaled DFS forked at heavy subtrees) against the one-thread DFS
// (`tree_glws_sequential`).  The paper's rounds with persistent envelopes
// (`tree_glws_parallel`) are timed next to them, ungated: their rounds
// track the best-decision chain depth, not the tree size.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "src/parallel/random.hpp"
#include "src/structures/tree_utils.hpp"
#include "src/treeglws/tree_glws.hpp"

using namespace cordon;
using structures::RootedTree;

namespace {

std::vector<std::uint32_t> random_parents(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> parent(n, structures::kNoNode);
  for (std::uint32_t v = 1; v < n; ++v)
    parent[v] = static_cast<std::uint32_t>(parallel::uniform(seed, v, v));
  return parent;
}

std::vector<std::uint32_t> path_parents(std::size_t n) {
  std::vector<std::uint32_t> parent(n, structures::kNoNode);
  for (std::uint32_t v = 1; v < n; ++v) parent[v] = v - 1;
  return parent;
}

std::vector<std::uint32_t> binary_parents(std::size_t n) {
  std::vector<std::uint32_t> parent(n, structures::kNoNode);
  for (std::uint32_t v = 1; v < n; ++v) parent[v] = (v - 1) / 2;
  return parent;
}

}  // namespace

int main() {
  const std::size_t n = bench::env_size("CORDON_BENCH_N", 1u << 17);
  auto x = std::make_shared<std::vector<double>>(n + 1, 0.0);
  for (std::size_t i = 1; i <= n; ++i)
    (*x)[i] = (*x)[i - 1] + 0.5 + parallel::uniform_double(17, i);
  glws::CostFn w = [x](std::size_t du, std::size_t dv) {
    double s = (*x)[dv] - (*x)[du];
    return 500.0 + 0.05 * s * s;
  };
  glws::EFn e = glws::identity_e();

  bench::print_header("A7: Tree-GLWS across shapes",
                      "shape     n        seq(s)    ours(s)   ours-1t(s) "
                      "path               cordon(s) rounds  verified");
  bench::JsonEmitter json("bench_tree_glws");
  // Each time is the minimum of kReps runs, and the production and
  // sequential runs alternate, so the gate's comparison of `seconds` with
  // `sequential_s` is not decided by one noisy run or one slow stretch.
  constexpr int kReps = 3;
  parallel::ensure_started();
  auto run = [&](const char* shape, std::vector<std::uint32_t> parents) {
    RootedTree t(std::move(parents));
    treeglws::TreeGlwsResult sv, av, one, pv;
    auto [ta, ts] = bench::min_time_ab_s(
        kReps, [&] { av = treeglws::tree_glws_auto(t, 0.0, w, e); },
        [&] { sv = treeglws::tree_glws_sequential(t, 0.0, w, e); });
    double t1;
    {
      parallel::SequentialRegion seq_region;
      t1 = bench::min_time_s(
          kReps, [&] { one = treeglws::tree_glws_auto(t, 0.0, w, e); });
    }
    double tp = bench::min_time_s(
        kReps, [&] { pv = treeglws::tree_glws_parallel(t, 0.0, w, e); });
    auto same = [&](const treeglws::TreeGlwsResult& r) {
      return r.d == sv.d && r.best == sv.best &&
             r.stats.relaxations == sv.stats.relaxations;
    };
    bool ok = same(av) && same(one);
    std::printf("%-9s %-8zu %-9.4f %-9.4f %-10.4f %-18s %-9.4f %-7llu %s\n",
                shape, t.size(), ts, ta, t1, core::solve_path_name(av.path),
                tp, static_cast<unsigned long long>(pv.stats.rounds),
                ok ? "yes" : "MISMATCH");
    json.record_scaling({.series = "ours",
                         .n = t.size(),
                         .seconds = ta,
                         .one_thread_s = t1,
                         .sequential_s = ts,
                         .path = av.path,
                         .verified = ok,
                         .stats = av.stats,
                         .extra = {{"shape", shape},
                                   {"parallel_s", tp},
                                   {"parallel_rounds", pv.stats.rounds}}});
  };
  run("random", random_parents(n, 3));
  run("binary", binary_parents(n));
  run("path", path_parents(n / 8));
  return 0;
}
