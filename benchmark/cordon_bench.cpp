// cordon_bench: the benchmark program.
//
//   cordon_bench --workload W --seed S --seconds T --tmp DIR [--trace FILE]
//
// Runs one workload through the public APIs of `parallel`, the family
// modules, `engine` and `service`, checks every output, and prints one
// JSON record holding every metric it measured.  benchmark/run.py builds
// this binary, runs it with CORDON_NUM_THREADS=4 and reduces the record
// to the metrics BENCHMARK.json names.  With --trace the program records
// its own spans around each layer call and writes them to FILE as Chrome
// Trace Event JSON.  Workload rationale and the metric catalog live in
// benchmark/README.md.
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness.hpp"
#include "instances.hpp"
#include "src/core/telemetry.hpp"
#include "src/engine/batch_executor.hpp"
#include "src/engine/delta.hpp"
#include "src/engine/registry.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/service/service.hpp"

namespace {

using namespace cordon;
using bench::Clock;
using bench::ScopedSpan;
using bench::seconds_between;
using bench::Tracer;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string tmp_dir;
  std::string trace_path;
};

struct Outcome {
  bench::Metrics m;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // errored, shed or expired operations
  std::uint64_t mismatched = 0;  // outputs that disagree with the oracle
  bool valid = true;
};

/// Set-up is repeated this often per run and reported as the median, so
/// one slow thread spawn does not decide setup_s.
constexpr int kSetupReps = 51;

/// Median wall time of `build()` over kSetupReps runs, each started from
/// a stopped pool; `teardown()` releases what the previous build made.
/// builtin_registry() is a process-lifetime static that only its first
/// call builds, so it is built here, untimed, and no repetition pays it.
template <typename Build, typename Teardown>
double median_setup_s(Build build, Teardown teardown) {
  (void)engine::builtin_registry();
  std::vector<double> t;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) teardown();
    parallel::detail::shutdown_pool();
    auto t0 = Clock::now();
    build();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return bench::median(t);
}

/// splitmix64 finalizer: the benchmark's seeded choices (arrival gaps, Zipf
/// draws, the check sample) are pure functions of (seed, index).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform in (0, 1) from stream `stream` of `seed`, element `i`.
double unit(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  std::uint64_t bits = mix(seed ^ mix(stream) ^ mix(i + 0x51ed27u));
  return (static_cast<double>(bits >> 11) + 0.5) * 0x1.0p-53;
}

void check_objective(Outcome& out, std::string_view family, double got,
                     double want) {
  if (bench::objectives_match(family, got, want)) return;
  ++out.mismatched;
  std::fprintf(stderr, "mismatch: %.*s got %.17g want %.17g\n",
               static_cast<int>(family.size()), family.data(), got, want);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Scheduler counters of a phase (`delta`), per operation.
void put_parallel_per_op(Outcome& out, const telemetry::Snapshot& delta,
                         double ops) {
  using C = telemetry::Counter;
  auto per_op = [&](C c) {
    return ratio(static_cast<double>(delta.counter(c)), ops);
  };
  out.m.set("parallel.steals_per_op", per_op(C::kSchedSteals), "count");
  out.m.set("parallel.parks_per_op", per_op(C::kSchedParks), "count");
  out.m.set("parallel.jobs_per_op", per_op(C::kSchedJobsRun), "count");
}

/// Geometric mean of the medians of the non-empty samples: every family
/// weighs the same, however often it ran.
double geomean_of_medians(const std::vector<std::vector<double>>& samples) {
  double log_sum = 0;
  std::size_t n = 0;
  for (const std::vector<double>& v : samples) {
    if (v.empty()) continue;
    log_sum += std::log(bench::median(v));
    ++n;
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

/// The request workloads' latency metrics from per-family samples.  The
/// families' latencies lie far apart (a cache hit takes 5 us for glws and
/// 0.9 ms for dag), so the median of the whole mix falls between two of
/// them and jumps with the mix; latency_ms is the geometric mean of the
/// per-family medians instead.  latency_p99_ms is the p99 of all
/// requests (every run has far more than 1000 samples, so p99 has 10 or
/// more beyond it).  It follows the host's CPU steal too closely to bound
/// a change on a shared machine, so it is reported but not end-to-end.
void put_latency(Outcome& out,
                 const std::vector<std::vector<double>>& latency_s) {
  std::vector<double> all;
  for (const std::vector<double>& v : latency_s)
    all.insert(all.end(), v.begin(), v.end());
  out.m.set("latency_ms", geomean_of_medians(latency_s) * 1e3, "ms");
  out.m.set("latency_p99_ms", bench::quantile(all, 0.99) * 1e3, "ms");
}

// --- solve_large ------------------------------------------------------------
//
// Closed loop, one caller: whole passes of Solver::solve over one
// paper-scale instance per family, until the run's time is up.  The
// solvers and the scheduler do all the work; the service does none.

Outcome solve_large(const Args& a) {
  Outcome out;
  out.m.set("setup_s",
            median_setup_s([] { parallel::ensure_started(); }, [] {}), "s");
  const engine::ProblemRegistry* reg = &engine::builtin_registry();

  struct Case {
    std::string_view family;
    engine::Instance inst;
    const engine::Solver* solver = nullptr;
    double expected = 0;
    std::vector<double> solve_s;
  };
  std::vector<Case> cases;
  for (std::string_view f : bench::kFamilies) {
    cases.push_back({f, bench::make_instance(f, bench::Scale::kPaper, a.seed, 0),
                     &reg->at(f), 0, {}});
  }

  // The oracle is the family's sequential algorithm.  The traced run
  // also times the raw parallel entry, on the pool and forced inline.
  const bool traced = Tracer::get().on();
  for (Case& c : cases) {
    const std::string f(c.family);
    bench::FamilyEntry entry = bench::prepare_entry(c.inst);
    auto t0 = Clock::now();
    bench::LayerResult seq;
    {
      ScopedSpan span("family.sequential", c.family.data());
      seq = entry(false);
    }
    c.expected = seq.objective;
    if (!traced) continue;
    out.m.set(f + ".sequential_s", seconds_between(t0, Clock::now()), "s");

    using C = telemetry::Counter;
    telemetry::Snapshot base = telemetry::snapshot();
    t0 = Clock::now();
    bench::LayerResult par;
    {
      ScopedSpan span("family.parallel", c.family.data());
      par = entry(true);
    }
    out.m.set(f + ".parallel_s", seconds_between(t0, Clock::now()), "s");
    telemetry::Snapshot d = telemetry::snapshot().delta_since(base);
    out.m.set(f + ".steal_attempts_per_steal",
              ratio(static_cast<double>(d.counter(C::kSchedStealAttempts)),
                    static_cast<double>(d.counter(C::kSchedSteals))),
              "ratio");
    out.m.set(f + ".relax_ratio",
              ratio(static_cast<double>(par.stats.relaxations),
                    static_cast<double>(seq.stats.relaxations)),
              "ratio");
    out.m.set(f + ".rounds", static_cast<double>(par.stats.rounds), "count");
    check_objective(out, c.family, par.objective, c.expected);

    t0 = Clock::now();
    {
      ScopedSpan span("family.one_thread", c.family.data());
      parallel::SequentialRegion inline_forks;
      check_objective(out, c.family, entry(true).objective, c.expected);
    }
    out.m.set(f + ".one_thread_s", seconds_between(t0, Clock::now()), "s");
  }

  for (const Case& c : cases)  // warm-up
    check_objective(out, c.family, c.solver->solve(c.inst).objective,
                    c.expected);

  telemetry::Snapshot base = telemetry::snapshot();
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(a.seconds);
  do {
    for (Case& c : cases) {
      auto t0 = Clock::now();
      engine::SolveResult r;
      {
        ScopedSpan span("family.solve", c.family.data());
        r = c.solver->solve(c.inst);
      }
      c.solve_s.push_back(seconds_between(t0, Clock::now()));
      check_objective(out, c.family, r.objective, c.expected);
      ++out.attempted;
    }
  } while (Clock::now() < deadline);
  put_parallel_per_op(out, telemetry::snapshot().delta_since(base),
                      static_cast<double>(out.attempted));

  // A run holds only a few calls per family, too few for a percentile,
  // so the end-to-end metrics summarize the per-family medians: their
  // geometric mean (every family weighs the same; the median of nine
  // flips between the two middle families) and the rate of a mix that
  // solves every family equally often.
  std::vector<std::vector<double>> solve_s;
  double suite_s = 0;
  for (const Case& c : cases) {
    const double median_s = bench::median(c.solve_s);
    out.m.set(std::string(c.family) + ".solve_s", median_s, "s");
    suite_s += median_s;
    solve_s.push_back(c.solve_s);
  }
  const auto n = static_cast<double>(cases.size());
  out.m.set("latency_ms", geomean_of_medians(solve_s) * 1e3, "ms");
  out.m.set("throughput_rps", n / suite_s, "1/s");
  return out;
}

// --- service_cold / service_zipf ------------------------------------------

/// Zipf(s = 1) over [0, n): rank r has probability proportional to
/// 1 / (r + 1).
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) cdf_[r] = (sum += 1.0 / (r + 1.0));
    for (double& c : cdf_) c /= sum;
  }
  [[nodiscard]] std::uint64_t draw(double u) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

constexpr std::size_t kF = bench::kFamilies.size();

/// Instance `id` of the service mix: the nine families in turn.
engine::Instance service_instance(std::uint64_t seed, std::uint64_t id) {
  return bench::make_instance(bench::kFamilies[id % kF],
                              bench::Scale::kService, seed, id / kF);
}

/// One submit() and its outcome.  `due` is the scheduled send time of an
/// open-loop request and equals `sent` in a closed loop.
struct Request {
  std::uint64_t id = 0;  // service-mix instance
  Clock::time_point due, sent, returned, done;
  double objective = 0;
  bool ok = false;
  bool hit = false;  // the future was ready when submit() returned
  bool measured = false;
};

void settle(Request& r, std::future<engine::SolveResult>& fut) {
  try {
    r.objective = fut.get().objective;
    r.ok = true;
  } catch (const std::exception&) {
    r.ok = false;
  }
  r.done = Clock::now();
}

/// submit() with the request's timestamps; a miss returns its future.
std::optional<std::future<engine::SolveResult>> submit(
    service::CordonService& svc, Request& r, engine::Instance inst) {
  r.sent = Clock::now();
  std::future<engine::SolveResult> fut = svc.submit(std::move(inst));
  r.returned = Clock::now();
  r.hit = fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  if (!r.hit) return fut;
  settle(r, fut);
  return std::nullopt;
}

/// A service with default options; its set-up is measured into setup_s.
std::unique_ptr<service::CordonService> start_service(Outcome& out) {
  std::unique_ptr<service::CordonService> svc;
  out.m.set("setup_s",
            median_setup_s(
                [&] {
                  parallel::ensure_started();
                  svc = std::make_unique<service::CordonService>(
                      service::ServiceOptions{}, engine::builtin_registry());
                },
                [&] { svc.reset(); }),
            "s");
  return svc;
}

/// Service counters between the snapshots taken at the start and the end
/// of the measured phase.
struct PhaseStats {
  service::ServiceStats begin, end;
  telemetry::Snapshot tel_begin, tel_delta;
};

/// What both service workloads report after their traffic has run:
/// service-layer metrics, the correctness check on a seeded sample, and
/// in the traced run the request spans and the engine-layer probes.
void finish_service(Outcome& out, const Args& a,
                    const std::vector<Request>& reqs,
                    const PhaseStats& ps) {
  const engine::ProblemRegistry& reg = engine::builtin_registry();
  std::vector<double> submit_s;
  std::size_t hits = 0, failed = 0;
  for (const Request& r : reqs) {
    failed += r.ok ? 0 : 1;
    if (!r.measured) continue;
    submit_s.push_back(seconds_between(r.sent, r.returned));
    hits += r.hit ? 1 : 0;
  }
  out.attempted = reqs.size();
  out.failed += failed;
  out.m.set("loadgen.sent", static_cast<double>(reqs.size()), "count");
  out.m.set("loadgen.completed", static_cast<double>(reqs.size() - failed),
            "count");

  const auto n_meas = static_cast<double>(submit_s.size());
  put_parallel_per_op(out, ps.tel_delta, n_meas);

  const service::ServiceStats &s0 = ps.begin, &s1 = ps.end;
  const double submitted = static_cast<double>(s1.submitted - s0.submitted);
  const double solved =
      static_cast<double>(s1.solver.requests - s0.solver.requests);
  out.m.set("service.submit_us_p50", bench::quantile(submit_s, 0.50) * 1e6,
            "us");
  out.m.set("service.submit_us_p99", bench::quantile(submit_s, 0.99) * 1e6,
            "us");
  out.m.set("service.hit_share", ratio(static_cast<double>(hits), n_meas),
            "share");
  out.m.set("service.lookups_per_submit",
            ratio(static_cast<double>((s1.cache.hits + s1.cache.misses) -
                                      (s0.cache.hits + s0.cache.misses)),
                  submitted),
            "ratio");
  out.m.set("service.queue_wait_ms_mean",
            ratio(s1.queue.total_wait_s - s0.queue.total_wait_s,
                  static_cast<double>(s1.queue.enqueued - s0.queue.enqueued)) *
                1e3,
            "ms");
  out.m.set("service.queue_wait_ms_max", s1.queue.max_wait_s * 1e3, "ms");
  out.m.set("service.batch_size_mean",
            ratio(solved, static_cast<double>(s1.batches - s0.batches)),
            "count");
  out.m.set("service.solve_ms_mean",
            ratio(s1.solver.total_latency_s - s0.solver.total_latency_s,
                  solved) *
                1e3,
            "ms");
  out.m.set("service.evictions",
            static_cast<double>(s1.cache.evictions - s0.cache.evictions),
            "count");
  out.m.set("service.coalesced_share",
            ratio(static_cast<double>(s1.coalesced - s0.coalesced), submitted),
            "share");

  // Correctness: re-solve a seeded sample of completed requests with
  // Solver::solve; requests for one instance share its re-solve.
  constexpr std::size_t kSample = 2000;
  std::vector<std::size_t> order(reqs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::size_t picks = std::min(kSample, order.size());
  for (std::size_t i = 0; i < picks; ++i)
    std::swap(order[i],
              order[i + static_cast<std::size_t>(
                            unit(a.seed, 3, i) *
                            static_cast<double>(order.size() - i))]);
  order.resize(picks);
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_id;
  for (std::size_t i : order)
    if (reqs[i].ok) by_id[reqs[i].id].push_back(i);
  std::vector<std::uint64_t> ids;
  for (const auto& entry : by_id) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  std::vector<engine::Instance> sample(ids.size());
  std::vector<double> expected(ids.size());
  parallel::parallel_for(
      0, ids.size(),
      [&](std::size_t i) {
        sample[i] = service_instance(a.seed, ids[i]);
        expected[i] = reg.at(sample[i].kind).solve(sample[i]).objective;
      },
      1);
  for (std::size_t i = 0; i < ids.size(); ++i)
    for (std::size_t r : by_id[ids[i]])
      check_objective(out, sample[i].kind, reqs[r].objective, expected[i]);

  Tracer& tracer = Tracer::get();
  if (!tracer.on()) return;

  // Request spans of the measured phase, from the recorded timestamps.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    if (!r.measured) continue;
    const std::uint64_t root = tracer.next_id();
    tracer.record({"request", bench::to_ns(r.due), bench::to_ns(r.done), 0,
                   true, root, 0, i, nullptr});
    tracer.record({"service.submit", bench::to_ns(r.sent),
                   bench::to_ns(r.returned), 0, true, tracer.next_id(), root,
                   i, nullptr});
    if (!r.hit)
      tracer.record({"service.wait", bench::to_ns(r.returned),
                     bench::to_ns(r.done), 0, true, tracer.next_id(), root, i,
                     nullptr});
  }

  // Engine layer over the checked sample: canonicalize + hash, and the
  // batch executor in batches of the service's mean batch size.
  std::vector<double> canon_s;
  double key_bytes = 0;
  for (const engine::Instance& inst : sample) {
    auto t0 = Clock::now();
    // Span labels must outlive the run: take the family's static name.
    ScopedSpan span("engine.canonicalize",
                    std::find(bench::kFamilies.begin(), bench::kFamilies.end(),
                              inst.kind)
                        ->data());
    key_bytes += static_cast<double>(engine::canonical_key(inst).text.size());
    canon_s.push_back(seconds_between(t0, Clock::now()));
  }
  out.m.set("engine.canonicalize_us_p50", bench::median(canon_s) * 1e6, "us");
  out.m.set("engine.key_bytes_mean",
            ratio(key_bytes, static_cast<double>(sample.size())), "bytes");
  const auto batch = static_cast<std::size_t>(
      std::max(1.0, std::round(out.m.get("service.batch_size_mean"))));
  const std::size_t probe = std::min<std::size_t>(sample.size(), 1024);
  engine::BatchExecutor executor(reg);
  for (bool par : {true, false}) {
    engine::BatchOptions opt;
    opt.parallel = par;
    auto t0 = Clock::now();
    for (std::size_t lo = 0; lo < probe; lo += batch) {
      std::size_t hi = std::min(probe, lo + batch);
      ScopedSpan span("engine.batch", par ? "parallel" : "serial");
      engine::BatchReport rep = executor.run(
          std::span<const engine::Instance>(sample.data() + lo, hi - lo), opt);
      for (std::size_t i = lo; i < hi; ++i) {
        const engine::BatchItem& item = rep.items[i - lo];
        if (!item.ok)
          ++out.failed;
        else
          check_objective(out, item.kind, item.result.objective, expected[i]);
      }
    }
    out.m.set(par ? "engine.batch_parallel_rps" : "engine.batch_serial_rps",
              static_cast<double>(probe) / seconds_between(t0, Clock::now()),
              "1/s");
  }
}

constexpr double kWarmupS = 3;

// Open loop from one sender and one collector thread: Poisson arrivals
// of distinct instances, a discarded warm-up at the same rate, then the
// measured phase.  A request is timed from its scheduled send time to its
// observed completion, so a stall also delays the requests due behind it.
// Saturation bursts run before that traffic and after it has drained.
Outcome service_cold(const Args& a) {
  constexpr double kRate = 400;  // requests per second
  constexpr std::size_t kBursts = 6;
  constexpr std::size_t kBurstSize = 2400;
  constexpr std::size_t kBurstThreads = 3;
  constexpr auto kSpinBeforeDue = std::chrono::microseconds(500);
  Outcome out;
  std::unique_ptr<service::CordonService> svc = start_service(out);

  const auto n_warm = static_cast<std::size_t>(kRate * kWarmupS);
  const std::size_t meas_end =
      n_warm + static_cast<std::size_t>(kRate * a.seconds);
  std::vector<Request> reqs(meas_end + kBursts * kBurstSize);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].id = i;
    reqs[i].measured = i >= n_warm && i < meas_end;
  }

  struct InFlight {
    std::size_t i = 0;
    std::future<engine::SolveResult> fut;
  };

  // Each burst comes from several threads, each submitting its share back
  // to back and then settling its futures: one thread alone spends ~0.2 ms
  // canonicalizing per submit() and would bound the rate by itself.
  // throughput_rps is the median rate of all bursts.  Half of them run
  // before the open loop and half after it, about half a minute apart, so
  // neither one stall nor one slow stretch of the machine decides it.
  std::vector<double> burst_rps;
  auto run_bursts = [&](std::size_t first, std::size_t last) {
    for (std::size_t lo = first; lo < last; lo += kBurstSize) {
      const std::size_t hi = lo + kBurstSize;
      const auto burst_start = Clock::now();
      std::vector<std::thread> burst;
      for (std::size_t b = 0; b < kBurstThreads; ++b) {
        burst.emplace_back([&, b, lo, hi] {
          std::vector<InFlight> pending;
          for (std::size_t i = lo + b; i < hi; i += kBurstThreads) {
            reqs[i].due = Clock::now();
            if (auto fut = submit(*svc, reqs[i], service_instance(a.seed, i)))
              pending.push_back({i, std::move(*fut)});
          }
          for (InFlight& f : pending) settle(reqs[f.i], f.fut);
        });
      }
      for (std::thread& th : burst) th.join();
      Clock::time_point burst_done = burst_start;
      for (std::size_t i = lo; i < hi; ++i)
        burst_done = std::max(burst_done, reqs[i].done);
      burst_rps.push_back(static_cast<double>(kBurstSize) /
                          seconds_between(burst_start, burst_done));
    }
  };
  const std::size_t burst_mid = meas_end + kBursts / 2 * kBurstSize;
  run_bursts(meas_end, burst_mid);

  const auto t0 = Clock::now() + std::chrono::milliseconds(50);
  double t = 0;
  for (std::size_t i = 0; i < meas_end; ++i) {
    t += -std::log(unit(a.seed, 2, i)) / kRate;
    reqs[i].due = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(t));
  }
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;  // guarded by mu
  bool sending_done = false;   // guarded by mu
  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || sending_done; });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      settle(reqs[f.i], f.fut);
    }
  });

  PhaseStats ps;
  std::thread sender([&] {
    for (std::size_t i = 0; i < meas_end; ++i) {
      Request& r = reqs[i];
      if (i == n_warm) {
        ps.begin = svc->stats();
        ps.tel_begin = telemetry::snapshot();
      }
      engine::Instance inst = service_instance(a.seed, r.id);
      // Sleep to just short of the due time, then spin: a wake-up on a
      // busy machine can take far longer than the request it sends.
      std::this_thread::sleep_until(r.due - kSpinBeforeDue);
      while (Clock::now() < r.due) {
      }
      if (auto fut = submit(*svc, r, std::move(inst))) {
        std::lock_guard lock(mu);
        queue.push_back({i, std::move(*fut)});
        cv.notify_all();
      }
    }
    std::lock_guard lock(mu);
    sending_done = true;
    cv.notify_all();
  });
  sender.join();
  collector.join();
  ps.end = svc->stats();
  ps.tel_delta = telemetry::snapshot().delta_since(ps.tel_begin);
  run_bursts(burst_mid, reqs.size());

  // The generator's own lateness: how long after its due time a request
  // went out beyond the wait for the sender's previous submit() - that
  // wait is the service's cost, already inside the latency.
  std::vector<std::vector<double>> latency(kF);
  std::vector<double> late;
  for (std::size_t i = n_warm; i < meas_end; ++i) {
    latency[reqs[i].id % kF].push_back(
        seconds_between(reqs[i].due, reqs[i].done));
    late.push_back(seconds_between(
        std::max(reqs[i].due, reqs[i - 1].returned), reqs[i].sent));
  }
  put_latency(out, latency);
  out.m.set("throughput_rps", bench::median(burst_rps), "1/s");
  const double late_p99_ms = bench::quantile(late, 0.99) * 1e3;
  out.valid = late_p99_ms <= out.m.get("latency_ms");
  out.m.set("loadgen.late_p99_ms", late_p99_ms, "ms");
  finish_service(out, a, reqs, ps);
  return out;
}

// Closed loop, three client threads, each submitting its next request
// when the previous one has completed.  Requests are drawn Zipf(1) from
// 16384 instances of the service mix, four times the default cache, so
// most are hits answered inside submit().  (An open loop would time a
// hit of ~0.2 ms against the generator's own wake-up jitter, which on a
// loaded 4-core machine reaches ~1 ms at p99.)
Outcome service_zipf(const Args& a) {
  constexpr std::size_t kZipfClients = 3;
  constexpr std::size_t kDistinct = 16384;
  Outcome out;
  std::unique_ptr<service::CordonService> svc = start_service(out);
  const Zipf zipf(kDistinct);

  const auto start = Clock::now();
  const auto warm_end = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(kWarmupS));
  const auto meas_end =
      warm_end + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(a.seconds));
  std::vector<std::vector<Request>> per_client(kZipfClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kZipfClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::uint64_t n = c; Clock::now() < meas_end; n += kZipfClients) {
        Request r;
        r.id = zipf.draw(unit(a.seed, 1, n));
        engine::Instance inst = service_instance(a.seed, r.id);
        auto fut = submit(*svc, r, std::move(inst));
        if (fut) settle(r, *fut);
        r.due = r.sent;
        r.measured = r.sent >= warm_end && r.sent < meas_end;
        per_client[c].push_back(r);
      }
    });
  }
  PhaseStats ps;
  std::this_thread::sleep_until(warm_end);
  ps.begin = svc->stats();
  ps.tel_begin = telemetry::snapshot();
  std::this_thread::sleep_until(meas_end);
  ps.end = svc->stats();
  ps.tel_delta = telemetry::snapshot().delta_since(ps.tel_begin);
  for (std::thread& t : clients) t.join();

  std::vector<Request> reqs;
  for (const auto& v : per_client) reqs.insert(reqs.end(), v.begin(), v.end());
  std::vector<std::vector<double>> latency(kF);
  std::size_t measured = 0;
  for (const Request& r : reqs) {
    if (!r.measured) continue;
    latency[r.id % kF].push_back(seconds_between(r.sent, r.done));
    ++measured;
  }
  put_latency(out, latency);
  out.m.set("throughput_rps", static_cast<double>(measured) / a.seconds,
            "1/s");
  out.m.set("loadgen.late_p99_ms", 0, "ms");
  finish_service(out, a, reqs, ps);
  return out;
}

// --- session_append ---------------------------------------------------------
//
// Closed loop, three client threads.  Each client owns one durable
// session per incremental family (lis, lcs, convex glws), grown from half
// its full instance by 64-element appends in turn.  A session that
// reaches its full size is checked, closed and replaced by a fresh one.

constexpr std::size_t kClients = 3;
constexpr std::uint64_t kChunk = 64;
constexpr std::array<std::string_view, 3> kSessionFamilies{"lis", "lcs",
                                                           "glws"};

std::uint64_t full_size(const engine::Instance& inst) {
  if (const auto* p = std::get_if<engine::LisInstance>(&inst.payload))
    return p->values.size();
  if (const auto* p = std::get_if<engine::LcsInstance>(&inst.payload))
    return p->a.size();
  return inst.as<engine::GlwsInstance>().n;
}

struct Lineage {
  std::string_view family;
  std::uint64_t index = 0;  // instance index: client + kClients * generation
  engine::Instance full;
  std::uint64_t id = 0;     // session id
  std::uint64_t length = 0; // elements in the current version
  std::uint64_t version = 0;
};

/// A version whose objective is re-checked against a cold solve.
struct VersionCheck {
  std::string_view family;
  std::uint64_t index = 0, length = 0;
  double objective = 0;
};

Lineage open_lineage(service::CordonService& svc, std::string_view family,
                     std::uint64_t seed, std::uint64_t index) {
  Lineage l{family, index,
            bench::make_instance(family, bench::Scale::kSession, seed, index)};
  l.length = full_size(l.full) / 2;
  l.id = svc.create_session(engine::prefix_instance(l.full, l.length));
  return l;
}

Outcome session_append(const Args& a) {
  Outcome out;
  service::ServiceOptions opt;
  opt.journal_dir = a.tmp_dir + "/journal";
  std::filesystem::create_directories(opt.journal_dir);
  std::unique_ptr<service::CordonService> svc;
  std::vector<std::vector<Lineage>> lineages(kClients);
  out.m.set("setup_s",
            median_setup_s(
                [&] {
                  parallel::ensure_started();
                  svc = std::make_unique<service::CordonService>(
                      opt, engine::builtin_registry());
                  for (std::size_t c = 0; c < kClients; ++c) {
                    lineages[c].clear();
                    for (std::string_view f : kSessionFamilies)
                      lineages[c].push_back(open_lineage(*svc, f, a.seed, c));
                  }
                },
                [&] {
                  for (auto& ls : lineages)
                    for (Lineage& l : ls) svc->close_session(l.id);
                  svc.reset();
                }),
            "s");
  const engine::ProblemRegistry& reg = engine::builtin_registry();

  struct Client {
    // Per family, in kSessionFamilies order.
    std::vector<std::vector<double>> latency =
        std::vector<std::vector<double>>(kSessionFamilies.size());
    std::vector<VersionCheck> checks;
    std::uint64_t failed = 0;
  };
  std::vector<Client> clients(kClients);
  const service::ServiceStats st0 = svc->stats();
  const telemetry::Snapshot tel0 = telemetry::snapshot();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(a.seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& me = clients[c];
      std::vector<Lineage>& mine = lineages[c];
      while (Clock::now() < deadline) {
        for (std::size_t f = 0; f < mine.size(); ++f) {
          Lineage& l = mine[f];
          engine::Delta delta = engine::slice_delta(
              l.full, l.length, l.length + kChunk, l.version);
          double objective = 0;
          auto t0 = Clock::now();
          {
            ScopedSpan span("service.append", l.family.data());
            try {
              objective = svc->append(l.id, std::move(delta)).get().objective;
            } catch (const std::exception& e) {
              ++me.failed;
              std::fprintf(stderr, "append failed: %s\n", e.what());
            }
          }
          me.latency[f].push_back(seconds_between(t0, Clock::now()));
          l.length += kChunk;
          ++l.version;
          const bool last = l.length + kChunk > full_size(l.full);
          if (last || l.version % 64 == 0)
            me.checks.push_back({l.family, l.index, l.length, objective});
          if (last) {
            svc->close_session(l.id);
            l = open_lineage(*svc, l.family, a.seed, l.index + kClients);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = seconds_between(start, Clock::now());
  const service::ServiceStats st1 = svc->stats();
  const telemetry::Snapshot tel_delta = telemetry::snapshot().delta_since(tel0);

  std::vector<std::vector<double>> latency(kSessionFamilies.size());
  std::vector<VersionCheck> checks;
  for (const Client& c : clients) {
    for (std::size_t f = 0; f < latency.size(); ++f) {
      latency[f].insert(latency[f].end(), c.latency[f].begin(),
                        c.latency[f].end());
      out.attempted += c.latency[f].size();
    }
    checks.insert(checks.end(), c.checks.begin(), c.checks.end());
    out.failed += c.failed;
  }
  put_latency(out, latency);
  const auto timed = static_cast<double>(out.attempted);
  out.m.set("throughput_rps", timed / wall, "1/s");
  put_parallel_per_op(out, tel_delta, timed);
  const double appends =
      static_cast<double>(st1.session_appends - st0.session_appends);
  out.m.set("service.resume_share",
            ratio(static_cast<double>(st1.session_resumes - st0.session_resumes),
                  appends),
            "share");
  out.m.set("service.journal_writes",
            static_cast<double>(st1.journal_writes - st0.journal_writes),
            "count");

  // Every 64th version and each closed session's final version against
  // a cold solve of the same prefix.
  std::vector<double> expected(checks.size());
  parallel::parallel_for(
      0, checks.size(),
      [&](std::size_t i) {
        const VersionCheck& v = checks[i];
        engine::Instance full = bench::make_instance(
            v.family, bench::Scale::kSession, a.seed, v.index);
        expected[i] = reg.at(v.family)
                          .solve(engine::prefix_instance(full, v.length))
                          .objective;
      },
      1);
  for (std::size_t i = 0; i < checks.size(); ++i)
    check_objective(out, checks[i].family, checks[i].objective, expected[i]);

  for (auto& ls : lineages)
    for (Lineage& l : ls) svc->close_session(l.id);
  svc.reset();
  if (!Tracer::get().on()) return out;

  // Engine layer: delta apply and resume of 64-element appends, measured
  // apart from the service on a fresh lineage of each family.
  std::vector<double> apply_s, resume_s;
  for (std::string_view f : kSessionFamilies) {
    const engine::Solver& solver = reg.at(f);
    engine::Instance full = bench::make_instance(
        f, bench::Scale::kSession, a.seed, std::uint64_t{1} << 40);
    std::uint64_t length = full_size(full) / 2;
    engine::Instance grown = engine::prefix_instance(full, length);
    std::shared_ptr<const engine::SolverState> state;
    (void)solver.solve_checkpoint(grown, state);
    double objective = 0;
    for (std::uint64_t v = 0; length + kChunk <= full_size(full);
         ++v, length += kChunk) {
      engine::Delta delta =
          engine::slice_delta(full, length, length + kChunk, v);
      auto t0 = Clock::now();
      {
        ScopedSpan span("engine.delta_apply", f.data());
        engine::apply_delta_inplace(grown, delta);
      }
      auto t1 = Clock::now();
      {
        ScopedSpan span("family.resume", f.data());
        engine::ResumeResult rr = solver.resume(state, grown, delta);
        state = std::move(rr.state);
        objective = rr.result.objective;
      }
      apply_s.push_back(seconds_between(t0, t1));
      resume_s.push_back(seconds_between(t1, Clock::now()));
    }
    check_objective(out, f, objective, solver.solve(grown).objective);
  }
  out.m.set("engine.delta_apply_us_p50", bench::median(apply_s) * 1e6, "us");
  out.m.set("engine.resume_us_p50", bench::median(resume_s) * 1e6, "us");
  return out;
}

// --- main -------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cordon_bench: %s\nusage: cordon_bench --workload W --seed S "
               "--seconds T --tmp DIR [--trace FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    std::string value = argv[++i];
    if (key == "--workload")
      a.workload = value;
    else if (key == "--seed")
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds")
      a.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--tmp")
      a.tmp_dir = value;
    else if (key == "--trace")
      a.trace_path = value;
    else
      usage(("unknown option " + key).c_str());
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.tmp_dir.empty()) usage("--tmp is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (!a.trace_path.empty()) Tracer::get().enable();

  Outcome out;
  if (a.workload == "solve_large")
    out = solve_large(a);
  else if (a.workload == "service_cold")
    out = service_cold(a);
  else if (a.workload == "service_zipf")
    out = service_zipf(a);
  else if (a.workload == "session_append")
    out = session_append(a);
  else
    usage("unknown workload");

  if (!a.trace_path.empty() && !Tracer::get().write_chrome(a.trace_path)) {
    std::fprintf(stderr, "cordon_bench: cannot write %s\n",
                 a.trace_path.c_str());
    return 1;
  }

  const bool correct = out.failed == 0 && out.mismatched == 0;
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%.17g,\"valid\":%s,"
      "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      out.valid ? "true" : "false", correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed + out.mismatched));
  const char* sep = "";
  for (const auto& [name, vu] : out.m.all()) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", sep,
                name.c_str(), std::isfinite(vu.first) ? vu.first : 0.0,
                vu.second.c_str());
    sep = ",";
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
