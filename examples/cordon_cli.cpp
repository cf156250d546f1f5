// cordon_cli — the engine's front door.
//
//   cordon_cli list
//       Registered problem families.
//   cordon_cli gen <problem> [--n N] [--k K] [--seed S] [--out FILE]
//       Deterministic random instance, serialized to FILE (default stdout).
//   cordon_cli solve [--reference] [--check] [--trace] FILE...
//       Solve each instance file ("-" = stdin) with the optimized
//       algorithm; --reference uses the naive oracle instead; --check
//       runs both and compares objectives; --trace records a
//       chrome://tracing / Perfetto span trace of the run (written to
//       $CORDON_TRACE if set, else trace.json).
//   cordon_cli batch [--sequential] [--reference] [--mix N [--n SIZE]
//                    [--seed S]] FILE...
//       Run a queue through the BatchExecutor (files plus, with --mix, N
//       generated instances cycling over every registered family) and
//       print per-request latency and aggregate throughput.
//   cordon_cli stress [--clients C] [--requests R] [--distinct D]
//                     [--n SIZE] [--seed S] [--batch B] [--cache CAP]
//                     [--reference] [--deadline-us D] [--max-queue Q]
//                     [--shed-oldest]
//       Drive a CordonService with C client threads, each submitting R
//       asynchronous requests drawn from a pool of D distinct generated
//       instances; every completed result is checked against a
//       precomputed expected objective and per-category outcome counts
//       (ok / shed / expired / cancelled) are printed.  --deadline-us
//       attaches a per-request deadline, --max-queue bounds the
//       dispatcher queue (--shed-oldest picks the evict-head overload
//       policy instead of reject-new); requests failed by those
//       features count toward their category, and the exit status is
//       nonzero only for wrong objectives or failures outside the
//       SolveError taxonomy.  --metrics appends the service's
//       Prometheus exposition (CordonService::metrics_text) to stdout.
//       --sessions S switches to session mode: C client threads
//       interleave append-only deltas onto S shared solve sessions
//       (families cycling every delta-capable kind), each version's
//       objective checked against a cold solve of the same prefix.
//   cordon_cli session <problem> [--n N] [--appends A] [--chunk C]
//                      [--seed S] [--metrics]
//       Grow one generated instance through a solve session: base =
//       prefix, then A appends of C elements each.  Every version is
//       cross-checked against a cold solve of the grown prefix and the
//       resume-vs-cold path taken is printed per append.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/cancel.hpp"
#include "src/core/trace.hpp"
#include "src/engine/batch_executor.hpp"
#include "src/engine/delta.hpp"
#include "src/engine/instance.hpp"
#include "src/engine/registry.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/service/service.hpp"

namespace {

using namespace cordon;

int usage() {
  std::fprintf(stderr,
               "usage: cordon_cli list\n"
               "       cordon_cli gen <problem> [--n N] [--k K] [--seed S] "
               "[--out FILE]\n"
               "       cordon_cli solve [--reference] [--check] [--trace] FILE...\n"
               "       cordon_cli batch [--sequential] [--reference] "
               "[--mix N] [--n SIZE] [--seed S] [FILE...]\n"
               "       cordon_cli stress [--clients C] [--requests R] "
               "[--distinct D] [--n SIZE]\n"
               "                  [--seed S] [--batch B] [--cache CAP] "
               "[--reference] [--metrics]\n"
               "                  [--sessions S] [--appends A] [--chunk C]\n"
               "                  [--deadline-us D] [--max-queue Q] "
               "[--shed-oldest]\n"
               "       cordon_cli session <problem> [--n N] [--appends A] "
               "[--chunk C] [--seed S] [--metrics]\n");
  return 2;
}

struct Args {
  std::vector<std::string> positional;
  bool reference = false, check = false, sequential = false;
  bool trace = false, metrics = false;
  std::uint64_t n = 1000, k = 8, seed = 1, mix = 0;
  std::uint64_t clients = 4, requests = 256, distinct = 8;
  std::uint64_t batch = 64, cache = 4096;
  std::uint64_t sessions = 0, appends = 8, chunk = 0;
  std::uint64_t deadline_us = 0, max_queue = 0;  // 0 = none/unbounded
  bool shed_oldest = false;
  std::string out;
};

bool parse_args(int argc, char** argv, int first, Args& a) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_u64 = [&](std::uint64_t& dst) {
      if (i + 1 >= argc) return false;
      dst = std::strtoull(argv[++i], nullptr, 10);
      return true;
    };
    if (arg == "--reference")
      a.reference = true;
    else if (arg == "--check")
      a.check = true;
    else if (arg == "--sequential")
      a.sequential = true;
    else if (arg == "--trace")
      a.trace = true;
    else if (arg == "--metrics")
      a.metrics = true;
    else if (arg == "--n") {
      if (!next_u64(a.n)) return false;
    } else if (arg == "--k") {
      if (!next_u64(a.k)) return false;
    } else if (arg == "--seed") {
      if (!next_u64(a.seed)) return false;
    } else if (arg == "--mix") {
      if (!next_u64(a.mix)) return false;
    } else if (arg == "--clients") {
      if (!next_u64(a.clients)) return false;
    } else if (arg == "--requests") {
      if (!next_u64(a.requests)) return false;
    } else if (arg == "--distinct") {
      if (!next_u64(a.distinct)) return false;
    } else if (arg == "--batch") {
      if (!next_u64(a.batch)) return false;
    } else if (arg == "--cache") {
      if (!next_u64(a.cache)) return false;
    } else if (arg == "--sessions") {
      if (!next_u64(a.sessions)) return false;
    } else if (arg == "--appends") {
      if (!next_u64(a.appends)) return false;
    } else if (arg == "--chunk") {
      if (!next_u64(a.chunk)) return false;
    } else if (arg == "--deadline-us") {
      if (!next_u64(a.deadline_us)) return false;
    } else if (arg == "--max-queue") {
      if (!next_u64(a.max_queue)) return false;
    } else if (arg == "--shed-oldest") {
      a.shed_oldest = true;
    } else if (arg == "--out") {
      if (i + 1 >= argc) return false;
      a.out = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    } else {
      a.positional.push_back(arg);
    }
  }
  return true;
}

engine::Instance load(const std::string& path) {
  if (path == "-") return engine::parse_instance(std::cin);
  return engine::load_instance(path);
}

void print_result(const std::string& label, const engine::SolveResult& r,
                  double seconds) {
  std::printf("%-24s objective=%-16.6f rounds=%-8llu %s  (%.3f ms)\n",
              label.c_str(), r.objective,
              static_cast<unsigned long long>(r.stats.rounds),
              r.detail.c_str(), seconds * 1e3);
}

int cmd_list() {
  const auto& reg = engine::builtin_registry();
  std::printf("%zu registered problem families:\n", reg.size());
  for (const auto& solver : reg.solvers())
    std::printf("  %-10s %s\n", std::string(solver->key()).c_str(),
                std::string(solver->description()).c_str());
  return 0;
}

int cmd_gen(const Args& a) {
  if (a.positional.size() != 1) return usage();
  const engine::Solver& solver =
      engine::builtin_registry().at(a.positional[0]);
  engine::Instance inst = solver.generate({a.n, a.k, a.seed});
  if (a.out.empty())
    engine::serialize_instance(inst, std::cout);
  else
    engine::save_instance(inst, a.out);
  return 0;
}

int cmd_solve(const Args& a) {
  if (a.positional.empty()) return usage();
  const auto& reg = engine::builtin_registry();
  if (a.trace) telemetry::set_trace_enabled(true);
  int rc = 0;
  for (const std::string& path : a.positional) {
    engine::Instance inst = load(path);
    const engine::Solver& solver = reg.at(inst.kind);
    auto t0 = std::chrono::steady_clock::now();
    engine::SolveResult r =
        a.reference ? solver.solve_reference(inst) : solver.solve(inst);
    auto t1 = std::chrono::steady_clock::now();
    print_result(path, r, std::chrono::duration<double>(t1 - t0).count());
    if (a.check) {
      // --check always compares optimized vs oracle, even under
      // --reference (where r already holds the oracle result).
      engine::SolveResult opt = a.reference ? solver.solve(inst) : r;
      engine::SolveResult ref = a.reference ? r : solver.solve_reference(inst);
      double diff = std::abs(opt.objective - ref.objective);
      double tol = 1e-6 * std::max(1.0, std::abs(ref.objective));
      if (diff <= tol) {
        std::printf("%-24s   check OK (oracle objective=%.6f)\n",
                    path.c_str(), ref.objective);
      } else {
        std::printf("%-24s   check FAILED: optimized=%.6f oracle=%.6f\n",
                    path.c_str(), opt.objective, ref.objective);
        rc = 1;
      }
    }
  }
  if (a.trace) {
    // $CORDON_TRACE would also be flushed at exit by the env hook;
    // writing here too lets --trace work without the variable and
    // prints where the trace went.
    const char* env = std::getenv("CORDON_TRACE");
    std::string trace_path =
        env != nullptr && *env != '\0' ? env : "trace.json";
    if (telemetry::trace_write_file(trace_path))
      std::printf("trace written to %s (load in chrome://tracing or "
                  "ui.perfetto.dev)\n",
                  trace_path.c_str());
    else
      std::fprintf(stderr, "cordon_cli: cannot write trace to %s\n",
                   trace_path.c_str());
  }
  return rc;
}

int cmd_batch(const Args& a) {
  const auto& reg = engine::builtin_registry();
  std::vector<engine::Instance> queue;
  for (const std::string& path : a.positional) queue.push_back(load(path));
  if (a.mix > 0) {
    const auto& solvers = reg.solvers();
    for (std::uint64_t i = 0; i < a.mix; ++i) {
      const engine::Solver& s = *solvers[i % solvers.size()];
      queue.push_back(s.generate({a.n, a.k, a.seed + i}));
    }
  }
  if (queue.empty()) return usage();

  engine::BatchExecutor exec(reg);
  engine::BatchReport rep =
      exec.run(queue, {.parallel = !a.sequential,
                       .use_reference = a.reference});

  for (std::size_t i = 0; i < rep.items.size(); ++i) {
    const engine::BatchItem& item = rep.items[i];
    if (item.ok)
      print_result("[" + std::to_string(i) + "] " + item.kind, item.result,
                   item.latency_s);
    else
      std::printf("[%zu] %-12s FAILED: %s\n", i, item.kind.c_str(),
                  item.error.c_str());
  }
  std::printf(
      "\nbatch: %zu request(s), %zu failed, wall=%.3f ms, "
      "throughput=%.1f req/s (threads=%zu, %s)\n",
      rep.items.size(), rep.failed, rep.wall_s * 1e3, rep.throughput_rps(),
      parallel::num_workers(), a.sequential ? "sequential" : "parallel");
  std::printf(
      "       mean latency=%.3f ms, max latency=%.3f ms, max rounds=%llu, "
      "max effective depth=%llu\n",
      rep.stats.mean_latency_s() * 1e3, rep.stats.max_latency_s * 1e3,
      static_cast<unsigned long long>(rep.stats.max_rounds),
      static_cast<unsigned long long>(rep.stats.max_effective_depth));
  std::printf("       total states=%llu relaxations=%llu rounds=%llu\n",
              static_cast<unsigned long long>(rep.stats.total.states),
              static_cast<unsigned long long>(rep.stats.total.relaxations),
              static_cast<unsigned long long>(rep.stats.total.rounds));
  return rep.failed == 0 ? 0 : 1;
}

// Prefix lengths a growing lineage steps through: cuts[0] is the base
// instance, cuts[v] the instance after v appends of `chunk` elements.
// Returns empty when n is too small to split that way.
std::vector<std::uint64_t> session_cuts(std::uint64_t n, std::uint64_t appends,
                                        std::uint64_t chunk) {
  if (appends == 0) return {};
  if (chunk == 0) chunk = std::max<std::uint64_t>(1, n / (2 * appends));
  if (appends * chunk >= n) chunk = std::max<std::uint64_t>(1, (n - 1) / appends);
  if (appends * chunk >= n) return {};
  std::vector<std::uint64_t> cuts;
  cuts.reserve(appends + 1);
  cuts.push_back(n - appends * chunk);
  for (std::uint64_t v = 1; v <= appends; ++v)
    cuts.push_back(cuts.front() + v * chunk);
  return cuts;
}

int cmd_session(const Args& a) {
  if (a.positional.size() != 1) return usage();
  const auto& reg = engine::builtin_registry();
  const engine::Solver& solver = reg.at(a.positional[0]);
  engine::Instance full = solver.generate({a.n, a.k, a.seed});
  std::vector<std::uint64_t> cuts = session_cuts(a.n, a.appends, a.chunk);
  if (cuts.empty()) {
    std::fprintf(stderr, "cordon_cli: --n %llu too small for %llu append(s)\n",
                 static_cast<unsigned long long>(a.n),
                 static_cast<unsigned long long>(a.appends));
    return 2;
  }

  service::CordonService svc({.cache_capacity = a.cache}, reg);
  std::uint64_t id = svc.create_session(engine::prefix_instance(full, cuts[0]));
  std::printf("session %llu: %s base m=%llu, %llu append(s) of %llu\n",
              static_cast<unsigned long long>(id), a.positional[0].c_str(),
              static_cast<unsigned long long>(cuts[0]),
              static_cast<unsigned long long>(a.appends),
              static_cast<unsigned long long>(cuts[1] - cuts[0]));

  int rc = 0;
  for (std::uint64_t v = 1; v < cuts.size(); ++v) {
    engine::Delta delta =
        engine::slice_delta(full, cuts[v - 1], cuts[v], v - 1);
    auto t0 = std::chrono::steady_clock::now();
    engine::SolveResult r = svc.append(id, std::move(delta)).get();
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    // Oracle cross-check: a cold solve of the same grown prefix.
    engine::SolveResult cold =
        solver.solve(engine::prefix_instance(full, cuts[v]));
    double tol = 1e-6 * std::max(1.0, std::abs(cold.objective));
    bool ok = std::abs(r.objective - cold.objective) <= tol;
    if (!ok) rc = 1;
    std::printf(
        "  v%-3llu m=%-10llu objective=%-16.6f path=%-17s %s  (%.3f ms)\n",
        static_cast<unsigned long long>(v),
        static_cast<unsigned long long>(cuts[v]), r.objective,
        core::solve_path_name(r.path),
        ok ? "check OK" : "check FAILED vs cold", secs * 1e3);
  }
  if (auto info = svc.session_info(id)) {
    std::printf(
        "session %llu: version=%llu, incremental=%s, resumes=%llu, "
        "cold_solves=%llu\n",
        static_cast<unsigned long long>(id),
        static_cast<unsigned long long>(info->version),
        info->incremental ? "yes" : "no",
        static_cast<unsigned long long>(info->resumes),
        static_cast<unsigned long long>(info->cold_solves));
  }
  if (a.metrics)
    std::printf("\n--- metrics ---\n%s", svc.metrics_text().c_str());
  svc.close_session(id);
  return rc;
}

// stress --sessions: C client threads interleave appends on S shared
// sessions (families cycling every delta-capable kind).  Per-session
// ordering is the CLI's job — a mutex issues versions in order — while
// cross-session appends run concurrently; every version's objective is
// checked against a precomputed cold solve of the same prefix.
int cmd_stress_sessions(const Args& a) {
  if (a.clients == 0 || a.appends == 0) return usage();
  const auto& reg = engine::builtin_registry();
  std::vector<const engine::Solver*> fams;
  for (const auto& s : reg.solvers())
    if (s->key() != "dag") fams.push_back(s.get());  // dag: no slicing

  struct Sess {
    std::uint64_t id = 0;
    const engine::Solver* solver = nullptr;
    engine::Instance full;
    std::vector<std::uint64_t> cuts;
    std::vector<double> expected;  // expected[v]: cold objective at version v
    std::mutex mu;                 // versions issued strictly in order
    std::uint64_t next = 1;
  };

  std::vector<std::unique_ptr<Sess>> sessions;
  for (std::uint64_t i = 0; i < a.sessions; ++i) {
    auto s = std::make_unique<Sess>();
    s->solver = fams[i % fams.size()];
    s->full = s->solver->generate({a.n, a.k, a.seed + i});
    s->cuts = session_cuts(a.n, a.appends, a.chunk);
    if (s->cuts.empty()) {
      std::fprintf(stderr,
                   "cordon_cli: --n %llu too small for %llu append(s)\n",
                   static_cast<unsigned long long>(a.n),
                   static_cast<unsigned long long>(a.appends));
      return 2;
    }
    s->expected.reserve(s->cuts.size());
    for (std::uint64_t cut : s->cuts)
      s->expected.push_back(
          s->solver->solve(engine::prefix_instance(s->full, cut)).objective);
    sessions.push_back(std::move(s));
  }

  service::CordonService svc(
      {.max_batch = a.batch, .cache_capacity = a.cache},
      reg);
  for (auto& s : sessions)
    s->id = svc.create_session(engine::prefix_instance(s->full, s->cuts[0]));

  std::vector<std::uint64_t> mismatches(a.clients, 0), errors(a.clients, 0);
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(a.clients);
  for (std::uint64_t c = 0; c < a.clients; ++c) {
    threads.emplace_back([&, c] {
      for (bool any = true; any;) {
        any = false;
        for (auto& sp : sessions) {
          Sess& s = *sp;
          std::unique_lock lk(s.mu);
          if (s.next >= s.cuts.size()) continue;
          const std::uint64_t v = s.next++;
          engine::Delta delta =
              engine::slice_delta(s.full, s.cuts[v - 1], s.cuts[v], v - 1);
          auto fut = svc.append(s.id, std::move(delta));
          lk.unlock();  // future is already settled; checking needs no lock
          any = true;
          try {
            double got = fut.get().objective;
            double tol = 1e-6 * std::max(1.0, std::abs(s.expected[v]));
            if (std::abs(got - s.expected[v]) > tol) ++mismatches[c];
          } catch (const std::exception&) {
            ++errors[c];
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t bad = 0, err = 0;
  for (std::uint64_t c = 0; c < a.clients; ++c) {
    bad += mismatches[c];
    err += errors[c];
  }
  service::ServiceStats stats = svc.stats();
  std::printf(
      "stress --sessions: %llu append(s) over %llu session(s) from %llu "
      "client thread(s)\n",
      static_cast<unsigned long long>(a.sessions * a.appends),
      static_cast<unsigned long long>(a.sessions),
      static_cast<unsigned long long>(a.clients));
  std::printf(
      "        wall=%.3f ms (workers=%zu); resumes=%llu cold=%llu "
      "pinned_bases=%llu\n",
      wall * 1e3, parallel::num_workers(),
      static_cast<unsigned long long>(stats.session_resumes),
      static_cast<unsigned long long>(stats.session_cold_solves),
      static_cast<unsigned long long>(a.sessions));
  if (a.metrics)
    std::printf("\n--- metrics ---\n%s", svc.metrics_text().c_str());
  for (auto& s : sessions) svc.close_session(s->id);
  if (bad != 0 || err != 0) {
    std::printf("        FAILED: %llu wrong objective(s), %llu exception(s)\n",
                static_cast<unsigned long long>(bad),
                static_cast<unsigned long long>(err));
    return 1;
  }
  std::printf("        all session objectives verified OK\n");
  return 0;
}

int cmd_stress(const Args& a) {
  if (a.sessions > 0) return cmd_stress_sessions(a);
  if (!a.positional.empty() || a.clients == 0 || a.requests == 0 ||
      a.distinct == 0)
    return usage();
  const auto& reg = engine::builtin_registry();
  const auto& solvers = reg.solvers();

  // Distinct workload pool cycling the registered families, with the
  // expected objective of each precomputed for result checking.
  std::vector<engine::Instance> pool;
  std::vector<double> expected;
  for (std::uint64_t i = 0; i < a.distinct; ++i) {
    const engine::Solver& s = *solvers[i % solvers.size()];
    engine::Instance inst = s.generate({a.n, a.k, a.seed + i});
    expected.push_back(s.solve(inst).objective);
    pool.push_back(std::move(inst));
  }

  service::CordonService svc(
      {.max_batch = a.batch,
       .cache_capacity = a.cache,
       .use_reference = a.reference,
       .max_queue = a.max_queue,
       .overload_policy = a.shed_oldest
                              ? service::OverloadPolicy::kShedOldest
                              : service::OverloadPolicy::kRejectNew},
      reg);

  // Per-client outcome counts: [0]=ok [1]=shed [2]=expired [3]=cancelled,
  // plus objective mismatches and untyped (non-SolveError) exceptions —
  // only the last two are process failures.  Shed/expired requests are
  // the overload/deadline features doing their job, not errors.
  struct Outcomes {
    std::uint64_t ok = 0, shed = 0, expired = 0, cancelled = 0;
    std::uint64_t mismatched = 0, untyped = 0;
  };
  std::vector<Outcomes> per_client(a.clients);
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(a.clients);
  for (std::uint64_t c = 0; c < a.clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::pair<std::size_t, std::future<engine::SolveResult>>>
          futs;
      futs.reserve(a.requests);
      service::SubmitOptions sopt;
      if (a.deadline_us > 0)
        sopt.timeout = std::chrono::microseconds(a.deadline_us);
      for (std::uint64_t r = 0; r < a.requests; ++r) {
        std::size_t idx = (c * a.requests + r) % pool.size();
        futs.emplace_back(idx, svc.submit(pool[idx], sopt));
      }
      Outcomes& out = per_client[c];
      for (auto& [idx, fut] : futs) {
        try {
          double got = fut.get().objective;
          double tol = 1e-6 * std::max(1.0, std::abs(expected[idx]));
          if (std::abs(got - expected[idx]) > tol)
            ++out.mismatched;
          else
            ++out.ok;
        } catch (const core::SolveError& e) {
          switch (e.code()) {
            case core::SolveErrorCode::kShed: ++out.shed; break;
            case core::SolveErrorCode::kDeadlineExceeded: ++out.expired; break;
            case core::SolveErrorCode::kCancelled: ++out.cancelled; break;
            default: ++out.untyped; break;  // kInternal etc.: real failure
          }
        } catch (const std::exception&) {
          ++out.untyped;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0)
                    .count();

  Outcomes sum;
  for (const Outcomes& o : per_client) {
    sum.ok += o.ok;
    sum.shed += o.shed;
    sum.expired += o.expired;
    sum.cancelled += o.cancelled;
    sum.mismatched += o.mismatched;
    sum.untyped += o.untyped;
  }
  std::uint64_t total = a.clients * a.requests;
  service::ServiceStats stats = svc.stats();

  std::printf(
      "stress: %llu request(s) from %llu client thread(s) over %llu distinct "
      "instance(s)\n",
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(a.clients),
      static_cast<unsigned long long>(a.distinct));
  std::printf(
      "        wall=%.3f ms, throughput=%.1f req/s (workers=%zu, "
      "batch<=%llu)\n",
      wall * 1e3, total / wall, parallel::num_workers(),
      static_cast<unsigned long long>(a.batch));
  std::printf(
      "        cache: hit_rate=%.3f (%llu hits, %llu misses, %llu evictions, "
      "%zu resident)\n",
      stats.cache.hit_rate(), static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.misses),
      static_cast<unsigned long long>(stats.cache.evictions), svc.cache_size());
  std::printf(
      "        dispatcher: %llu batch(es), largest=%zu, coalesced=%llu, "
      "solver runs=%llu\n",
      static_cast<unsigned long long>(stats.batches), stats.largest_batch,
      static_cast<unsigned long long>(stats.coalesced),
      static_cast<unsigned long long>(stats.solver.requests));
  std::printf(
      "        queue wait: mean=%.3f ms, max=%.3f ms; solve latency: "
      "mean=%.3f ms, max=%.3f ms\n",
      stats.queue.mean_wait_s() * 1e3, stats.queue.max_wait_s * 1e3,
      stats.solver.mean_latency_s() * 1e3, stats.solver.max_latency_s * 1e3);
  std::printf(
      "        outcomes: ok=%llu shed=%llu expired=%llu cancelled=%llu\n",
      static_cast<unsigned long long>(sum.ok),
      static_cast<unsigned long long>(sum.shed),
      static_cast<unsigned long long>(sum.expired),
      static_cast<unsigned long long>(sum.cancelled));
  if (a.metrics)
    std::printf("\n--- metrics ---\n%s", svc.metrics_text().c_str());
  // Shed/expired/cancelled requests resolved exactly as configured; the
  // run only fails on wrong answers or failures outside the taxonomy.
  if (sum.mismatched != 0 || sum.untyped != 0) {
    std::printf(
        "        FAILED: %llu wrong objective(s), %llu untyped/internal "
        "failure(s)\n",
        static_cast<unsigned long long>(sum.mismatched),
        static_cast<unsigned long long>(sum.untyped));
    return 1;
  }
  std::printf("        all %llu completed objective(s) verified OK\n",
              static_cast<unsigned long long>(sum.ok));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  Args a;
  if (!parse_args(argc, argv, 2, a)) return usage();
  try {
    if (cmd == "list") return cmd_list();
    if (cmd == "gen") return cmd_gen(a);
    if (cmd == "solve") return cmd_solve(a);
    if (cmd == "batch") return cmd_batch(a);
    if (cmd == "stress") return cmd_stress(a);
    if (cmd == "session") return cmd_session(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cordon_cli: %s\n", e.what());
    return 1;
  }
  return usage();
}
