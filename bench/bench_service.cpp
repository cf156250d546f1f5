// Service-layer throughput: asynchronous admission + sharded result
// cache against the direct BatchExecutor path.
//
// Series (all over the same workload of DISTINCT instances cycling the
// registered families, submitted REPS times per round):
//   direct-batch  — BatchExecutor handed the whole queue up front (the
//                   synchronous baseline; no cache, no admission queue),
//   service-cold  — fresh CordonService, every instance seen for the
//                   first time: pays admission, dispatch, and the full
//                   solve,
//   service-hot   — same service, repeated workload: the sharded LRU
//                   answers in submit() without touching a solver,
//   service-hot-mt— hot cache under CLIENTS concurrent submitter
//                   threads (sharding is what keeps this scaling).
//
// The acceptance bar for the service PR is hot >= 5x cold throughput on
// a repeated-instance workload; the binary exits 1 if that fails so CI
// can gate on it.
//
// CORDON_BENCH_N        per-instance size          (default 2000)
// CORDON_BENCH_BATCH    distinct instances         (default 18)
// CORDON_BENCH_REPS     hot-path repeats per inst  (default 25)
// CORDON_BENCH_CLIENTS  hot-path client threads    (default 4)
// CORDON_BENCH_JSON     append machine-readable records
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "src/engine/batch_executor.hpp"
#include "src/engine/registry.hpp"
#include "src/service/service.hpp"

int main() {
  using namespace cordon;

  const std::size_t n = bench::env_size("CORDON_BENCH_N", 2000);
  const std::size_t distinct = bench::env_size("CORDON_BENCH_BATCH", 18);
  const std::size_t reps = bench::env_size("CORDON_BENCH_REPS", 25);
  const std::size_t clients = bench::env_size("CORDON_BENCH_CLIENTS", 4);

  const auto& reg = engine::builtin_registry();
  const auto& solvers = reg.solvers();
  std::vector<engine::Instance> pool;
  pool.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    const engine::Solver& s = *solvers[i % solvers.size()];
    // Quadratic-work families stay smaller so no one request dominates.
    std::uint64_t size =
        (s.key() == "obst" || s.key() == "gap" || s.key() == "dag") ? n / 8 : n;
    pool.push_back(s.generate({size, 8, 4000 + i}));
  }

  engine::BatchExecutor exec(reg);
  (void)exec.run(pool, {.parallel = false});  // warm-up: pool + code paths

  bench::print_header("service layer throughput (async + sharded cache)",
                      "series            requests  wall_ms    req/s");
  bench::JsonEmitter json("bench_service");

  double hot_rps = 0, cold_rps = 0;
  auto report_line = [&](const char* series, std::size_t requests,
                         double wall_s, double hit_rate) {
    double rps = requests / wall_s;
    std::printf("%-16s %9zu %8.2f %9.0f   hit_rate=%.3f\n", series, requests,
                wall_s * 1e3, rps, hit_rate);
    json.record({{"series", series},
                 {"requests", requests},
                 {"distinct", distinct},
                 {"n", n},
                 {"wall_s", wall_s},
                 {"throughput_rps", rps},
                 {"hit_rate", hit_rate}});
    return rps;
  };

  // direct-batch: the synchronous baseline.
  double direct_s = bench::time_s([&] {
    engine::BatchReport rep = exec.run(pool, {.parallel = true});
    if (rep.failed != 0) std::abort();
  });
  report_line("direct-batch", pool.size(), direct_s, 0.0);

  service::CordonService svc({.max_batch = 64});

  // Per-series hit rate: diff cache counters around the timed region
  // (svc.stats().cache is cumulative over the service lifetime).
  core::CacheStats cache_before;
  auto begin_series = [&] { cache_before = svc.stats().cache; };
  auto series_hit_rate = [&] {
    core::CacheStats after = svc.stats().cache;
    std::uint64_t hits = after.hits - cache_before.hits;
    std::uint64_t lookups = hits + (after.misses - cache_before.misses);
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  };

  auto submit_all = [&](std::size_t repeats) {
    std::vector<std::future<engine::SolveResult>> futs;
    futs.reserve(pool.size() * repeats);
    for (std::size_t r = 0; r < repeats; ++r)
      for (const engine::Instance& inst : pool) futs.push_back(svc.submit(inst));
    for (auto& f : futs) (void)f.get();
  };

  // service-cold: first sight of every instance (cache misses + solves).
  begin_series();
  double cold_s = bench::time_s([&] { submit_all(1); });
  cold_rps = report_line("service-cold", pool.size(), cold_s,
                         series_hit_rate());

  // service-hot: identical workload repeated; served from the cache.
  begin_series();
  double hot_s = bench::time_s([&] { submit_all(reps); });
  hot_rps = report_line("service-hot", pool.size() * reps, hot_s,
                        series_hit_rate());

  // service-hot-mt: hot cache under concurrent clients.
  std::size_t per_client = pool.size() * reps;
  begin_series();
  double mt_s = bench::time_s([&] {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c)
      threads.emplace_back([&] { submit_all(reps); });
    for (auto& t : threads) t.join();
  });
  report_line("service-hot-mt", per_client * clients, mt_s,
              series_hit_rate());

  service::ServiceStats stats = svc.stats();
  std::printf(
      "\nservice: %llu submitted, %llu solver runs, %llu coalesced, "
      "%llu batches (largest %zu), mean queue wait=%.3f ms\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.solver.requests),
      static_cast<unsigned long long>(stats.coalesced),
      static_cast<unsigned long long>(stats.batches), stats.largest_batch,
      stats.queue.mean_wait_s() * 1e3);
  std::printf("hot vs cold: %.1fx (bar: >= 5x), hot vs direct-batch: %.1fx\n",
              hot_rps / cold_rps, hot_rps / (pool.size() / direct_s));
  json.record({{"series", "summary"},
               {"hot_vs_cold", hot_rps / cold_rps},
               {"coalesced", stats.coalesced},
               {"solver_requests", stats.solver.requests},
               {"batches", stats.batches}});

  if (stats.failed != 0) {
    std::printf("FAILURES present — service layer is broken\n");
    return 1;
  }
  if (hot_rps < 5 * cold_rps) {
    std::printf("hot-cache throughput below the 5x bar\n");
    return 1;
  }
  return 0;
}
