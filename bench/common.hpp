// Shared benchmark harness.
//
// Each figure/ablation bench is a standalone binary that prints the
// series the paper's figure shows (plus machine-independent counters).
// Sizes default to laptop/CI scale and are overridden with environment
// variables so the same binaries reproduce paper-scale runs on a real
// multicore machine:
//   CORDON_BENCH_N      — problem size (default per bench)
//   CORDON_NUM_THREADS  — worker threads (scheduler-wide)
// The "ours (1 thread)" series uses parallel::SequentialRegion, exactly
// one binary per figure as the paper's harness does.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <initializer_list>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/core/dp_stats.hpp"
#include "src/core/telemetry.hpp"
#include "src/parallel/scheduler.hpp"

namespace cordon::bench {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* s = std::getenv(name)) {
    long long v = std::atoll(s);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

/// The scheduler's idle-CPU contract, gated in CI by bench_sched_wake
/// and test_scheduler_stress: with the pool started and no submitted
/// work, process CPU must stay under this fraction of one core.
inline constexpr double kIdleCpuGateFraction = 0.05;

/// CPU seconds consumed by this process (all threads).
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Best (lowest) idle-CPU fraction of one core observed over up to
/// `attempts` one-second windows, each preceded by a settle period that
/// outlives every spin phase so all workers park.  Returns early once a
/// window passes the gate; retrying tolerates background hiccups on
/// loaded CI machines, while a genuine spin loop fails every attempt by
/// an order of magnitude.
inline double measure_idle_cpu_fraction(int attempts = 3) {
  double best = 1e9;
  for (int attempt = 0; attempt < attempts && best >= kIdleCpuGateFraction;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    double cpu0 = process_cpu_s();
    auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    double cpu = process_cpu_s() - cpu0;
    double wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    best = std::min(best, cpu / wall);
  }
  return best;
}

/// Wall-clock seconds of fn().
template <typename Fn>
double time_s(Fn&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Lowest wall-clock seconds over `reps` runs of fn().  Scheduler and
/// hypervisor noise only ever add time, so the minimum is the steadiest
/// estimate of one run; the scaling gate compares two such minima.
template <typename Fn>
double min_time_s(int reps, Fn&& fn) {
  double best = time_s(fn);
  for (int r = 1; r < reps; ++r) best = std::min(best, time_s(fn));
  return best;
}

/// Lowest wall-clock seconds of fa() and of fb() over `reps` rounds that
/// alternate the two (ABAB...), so a slow stretch of the machine hits
/// both sides of a comparison rather than one.
template <typename FnA, typename FnB>
std::pair<double, double> min_time_ab_s(int reps, FnA&& fa, FnB&& fb) {
  double a = time_s(fa);
  double b = time_s(fb);
  for (int r = 1; r < reps; ++r) {
    a = std::min(a, time_s(fa));
    b = std::min(b, time_s(fb));
  }
  return {a, b};
}

/// Runs fn twice: parallel (current pool) and forced single-thread.
/// Returns {parallel_seconds, one_thread_seconds}.
template <typename Fn>
std::pair<double, double> time_par_and_seq(Fn&& fn) {
  cordon::parallel::ensure_started();
  double par = time_s(fn);
  double one;
  {
    cordon::parallel::SequentialRegion seq;
    one = time_s(fn);
  }
  return {par, one};
}

inline void print_header(const char* title, const char* columns) {
  std::printf("\n=== %s ===\n", title);
  std::printf("# threads=%zu (set CORDON_NUM_THREADS to change)\n",
              cordon::parallel::num_workers());
  std::printf("%s\n", columns);
}

/// One field of a machine-readable benchmark record.  Values are
/// pre-rendered as JSON so the emitter stays a dumb line writer.
struct JsonField {
  std::string key;
  std::string value;

  JsonField(std::string k, double v) : key(std::move(k)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    value = buf;
  }
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  JsonField(std::string k, T v)
      : key(std::move(k)), value(std::to_string(v)) {}
  JsonField(std::string k, const char* v) : key(std::move(k)) {
    value = quote(v);
  }
  JsonField(std::string k, const std::string& v) : key(std::move(k)) {
    value = quote(v);
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        // RFC 8259: control characters must be escaped.
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buf;
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }
};

/// Appends JSON-lines benchmark records to the file named by the
/// CORDON_BENCH_JSON environment variable (no-op when unset), so any
/// bench binary can produce a machine-readable trajectory next to its
/// human-readable stdout.  Every record carries the bench name and the
/// worker-thread count.
class JsonEmitter {
 public:
  explicit JsonEmitter(std::string bench_name)
      : bench_(std::move(bench_name)) {
    if (const char* path = std::getenv("CORDON_BENCH_JSON"))
      out_.open(path, std::ios::app);
    if (out_.is_open()) telemetry_base_ = telemetry::snapshot();
  }

  /// Every enabled emitter closes its trajectory with one
  /// `"series":"telemetry"` record: the scheduler/solver counter deltas
  /// accumulated over the bench's lifetime (steals, parks, wakes,
  /// rounds, relaxations...).  This is the data the thread-grid scaling
  /// sweep needs to explain its curves — per-bench, with zero per-bench
  /// wiring.
  ~JsonEmitter() {
    if (!out_.is_open()) return;
    telemetry::Snapshot d =
        telemetry::snapshot().delta_since(telemetry_base_);
    using C = telemetry::Counter;
    record({{"series", "telemetry"},
            {"steal_attempts", d.counter(C::kSchedStealAttempts)},
            {"steals", d.counter(C::kSchedSteals)},
            {"parks", d.counter(C::kSchedParks)},
            {"wakes", d.counter(C::kSchedWakes)},
            {"jobs", d.counter(C::kSchedJobsRun)},
            {"push_overflows", d.counter(C::kSchedPushOverflows)},
            {"adoptions", d.counter(C::kSchedAdoptions)},
            {"solver_rounds", d.counter(C::kSolverRounds)},
            {"solver_states", d.counter(C::kSolverStates)},
            {"solver_relaxations", d.counter(C::kSolverRelaxations)}});
  }

  [[nodiscard]] bool enabled() const { return out_.is_open(); }

  void record(const std::vector<JsonField>& fields) {
    if (!out_.is_open()) return;
    out_ << "{\"bench\":" << JsonField::quote(bench_)
         << ",\"threads\":" << cordon::parallel::num_workers();
    for (const JsonField& f : fields)
      out_ << ',' << JsonField::quote(f.key) << ':' << f.value;
    out_ << "}\n";
    out_.flush();
  }

  void record(std::initializer_list<JsonField> fields) {
    record(std::vector<JsonField>(fields));
  }

  /// Convenience: a record of one timed series point plus its counters.
  void record_point(const std::string& series, std::size_t n, double seconds,
                    const core::DpStats& s) {
    record({{"series", series},
            {"n", n},
            {"seconds", seconds},
            {"states", s.states},
            {"relaxations", s.relaxations},
            {"rounds", s.rounds}});
  }

  /// One point of a family's thread-scaling curve — the record shape
  /// scripts/check_scaling.py consumes.  Field contract:
  ///   seconds      — the production (`*_auto`) path at the current pool
  ///                  size: what a user gets (routing included);
  ///   one_thread_s — the raw parallel algorithm forced inline
  ///                  (SequentialRegion), the paper's "ours (1 thread)";
  ///   sequential_s — the family's sequential algorithm;
  ///   path         — core::solve_path_name of the routing `seconds`
  ///                  took.
  /// `threads` is stamped on every record by record().
  struct ScalingPoint {
    std::string series = "ours";
    std::size_t n = 0;
    double seconds = 0;
    double one_thread_s = 0;
    double sequential_s = 0;
    core::SolvePath path = core::SolvePath::kParallel;
    bool verified = true;
    core::DpStats stats;
    std::vector<JsonField> extra;  // family-specific fields (k, L, ...)
  };

  void record_scaling(const ScalingPoint& p) {
    if (!out_.is_open()) return;
    std::vector<JsonField> fields{{"series", p.series},
                                  {"n", p.n},
                                  {"seconds", p.seconds},
                                  {"one_thread_s", p.one_thread_s},
                                  {"sequential_s", p.sequential_s},
                                  {"path", core::solve_path_name(p.path)},
                                  {"verified", p.verified ? 1 : 0},
                                  {"states", p.stats.states},
                                  {"relaxations", p.stats.relaxations},
                                  {"rounds", p.stats.rounds}};
    fields.insert(fields.end(), p.extra.begin(), p.extra.end());
    record(fields);
  }

 private:
  std::string bench_;
  std::ofstream out_;
  telemetry::Snapshot telemetry_base_;
};

inline void print_stats_suffix(const core::DpStats& s) {
  std::printf("  states=%llu relax=%llu rounds=%llu",
              static_cast<unsigned long long>(s.states),
              static_cast<unsigned long long>(s.relaxations),
              static_cast<unsigned long long>(s.rounds));
}

}  // namespace cordon::bench
