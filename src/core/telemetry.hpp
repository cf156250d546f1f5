// cordon::telemetry — the process-wide metrics registry.
//
// Always-on, low-overhead observability for the quantities the paper's
// theorems are about (rounds, relaxations, states) plus the scheduler
// and service behavior around them (steals, parks, wakes, batch
// windows, cache traffic).  Three metric kinds:
//
//   * Counter   — monotonic u64, `count(Counter::kSchedSteals)`.
//   * Gauge     — signed level tracked by +/- deltas,
//                 `gauge_add(Gauge::kServiceQueueDepth, +1)`; the
//                 snapshot value is the sum of all per-slot deltas, so
//                 increment/decrement pairs may land on different
//                 threads and still read back correctly.
//   * Histogram — log2-bucketed u64 samples (latencies in ns),
//                 `observe(Histogram::kServiceSubmitNs, ns)`; bucket i
//                 holds values with bit_width == i, i.e. [2^(i-1), 2^i).
//
// Storage model (the whole point): one cache-line-padded slot per
// scheduler worker slot — pool workers AND ExternalWorkerScope
// adopters, the same identity scheme as core::Arena's worker_arena() —
// plus one shared overflow slot for outsider threads.  A worker's
// update is a relaxed fetch_add on a line no other thread writes, so
// instrumenting a hot loop costs nanoseconds and never contends;
// `snapshot()` folds the slots into one coherent-enough view (relaxed
// reads: counters may be a few increments stale, never torn).
//
// The registry is created lazily and intentionally leaked (same
// reasoning as worker_arena(): pool threads alive at process exit must
// not race a destructor).  Compiling with CORDON_TELEMETRY_DISABLED
// (-DCORDON_TELEMETRY=OFF in CMake) turns every operation into a no-op
// so the overhead gate can measure the instrumented build against a
// true zero-telemetry baseline.
//
// The span tracer on top of these slots lives in src/core/trace.hpp.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <vector>

#include "src/parallel/scheduler.hpp"

namespace cordon::telemetry {

#if defined(CORDON_TELEMETRY_DISABLED)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

enum class Counter : std::uint16_t {
  kSchedStealAttempts,  // victim deques probed (incl. empty probes)
  kSchedSteals,         // successful steals
  kSchedParks,          // workers committed to sleep on the eventcount
  kSchedWakes,          // eventcount signals sent to registered waiters
  kSchedJobsRun,        // jobs executed off a deque (stolen or helped)
  kSchedPushOverflows,  // full-deque pushes degraded to inline execution
  kSchedAdoptions,      // ExternalWorkerScope slots claimed
  kSolverRounds,        // phase-parallel rounds across all solvers
  kSolverStates,        // DpStats.states finalized across all solvers
  kSolverRelaxations,   // DpStats.relaxations across all solvers
  kSolverSeqCutoffs,    // solves routed to the sequential algorithm
  kSolverFusedRounds,   // low-work rounds run inline (round fusion)
  kEngineBatchRuns,     // BatchExecutor::run invocations
  kEngineSolves,        // requests admitted to a batch run
  kEngineSolveErrors,   // requests whose solver threw / kind unknown
  kEngineSolvesCancelled,  // solves aborted by cancellation or deadline
  kServiceSubmits,      // CordonService::submit calls admitted
  kServiceBatches,      // dispatcher batches executed
  kServiceCoalesced,    // duplicate requests merged inside a batch
  kServiceShed,         // requests rejected by admission control
  kServiceExpired,      // requests failed on a blown/unmeetable deadline
  kServiceCancelled,    // requests failed via their cancel token
  kSessionAppends,      // session append() calls accepted
  kSessionResumes,      // appends served from saved solver state
  kSessionColdSolves,   // appends that fell back to a cold solve
  kSessionJournalWrites, // durable journal records written
  kSessionJournalErrors, // journal write/open failures (session poisoned)
  kSessionsRecovered,   // sessions rebuilt by CordonService::recover
  kCount
};

enum class Gauge : std::uint16_t {
  kSchedDequeJobs,      // jobs currently published across all deques
  kSchedParkedWorkers,  // workers currently asleep in the OS
  kServiceQueueDepth,   // requests admitted but not yet dispatched
  kServiceOpenSessions, // solve sessions created and not yet closed
  kCount
};

enum class Histogram : std::uint16_t {
  kServiceSubmitNs,     // submit() wall time (serialize + hash + probe)
  kServiceQueueWaitNs,  // admission -> dispatch wait per request
  kServiceBatchSolveNs, // executor run per dispatched batch
  kServiceRejectWaitNs, // admission -> shed/expired/cancelled wait
  kSolverRoundNs,       // one solver round (recorded only while tracing)
  kCount
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kNumGauges =
    static_cast<std::size_t>(Gauge::kCount);
inline constexpr std::size_t kNumHistograms =
    static_cast<std::size_t>(Histogram::kCount);

/// log2 buckets: index 0 is the value 0, index i >= 1 covers
/// [2^(i-1), 2^i).  40 buckets cover ns-resolution latencies up to
/// ~9 minutes; larger samples clamp into the last bucket.
inline constexpr std::size_t kHistogramBuckets = 40;

/// Prometheus name + help line for one metric; the arrays below are
/// indexed by the enum values and the writer walks them in order.
struct MetricInfo {
  const char* name;
  const char* help;
};

inline constexpr std::array<MetricInfo, kNumCounters> kCounterInfo{{
    {"cordon_sched_steal_attempts_total",
     "Victim deques probed by idle or joining workers"},
    {"cordon_sched_steals_total", "Jobs successfully stolen"},
    {"cordon_sched_parks_total",
     "Times a worker committed to sleep on the eventcount"},
    {"cordon_sched_wakes_total",
     "Eventcount signals sent to registered waiters after publishing "
     "work (notifies that found no waiter are not counted)"},
    {"cordon_sched_jobs_total",
     "Jobs executed off a deque (stolen or helped; inline par_do fast "
     "path excluded)"},
    {"cordon_sched_push_overflows_total",
     "Full-deque pushes that degraded to inline execution"},
    {"cordon_sched_adoptions_total",
     "External worker slots claimed (ExternalWorkerScope)"},
    {"cordon_solver_rounds_total",
     "Phase-parallel rounds across all family solvers"},
    {"cordon_solver_states_total", "DP states finalized across all solvers"},
    {"cordon_solver_relaxations_total",
     "Cost-function evaluations across all solvers (the paper's work "
     "unit)"},
    {"cordon_solver_seq_cutoffs_total",
     "Solves routed to the sequential algorithm by the adaptive cutoff"},
    {"cordon_solver_fused_rounds_total",
     "Low-work rounds executed inline by round fusion"},
    {"cordon_engine_batch_runs_total", "BatchExecutor::run invocations"},
    {"cordon_engine_solves_total", "Requests admitted to a batch run"},
    {"cordon_engine_solve_errors_total",
     "Requests whose solver threw or whose kind was unknown"},
    {"cordon_engine_solves_cancelled_total",
     "Solves aborted mid-run by cancellation or a deadline"},
    {"cordon_service_submits_total", "CordonService::submit calls admitted"},
    {"cordon_service_batches_total", "Dispatcher batches executed"},
    {"cordon_service_coalesced_total",
     "Duplicate requests merged inside a batch"},
    {"cordon_service_shed_total",
     "Requests rejected by admission control (queue full or early shed)"},
    {"cordon_service_expired_total",
     "Requests failed on a deadline blown or unmeetable at dispatch"},
    {"cordon_service_cancelled_total",
     "Requests failed through their cancel token"},
    {"cordon_session_appends_total", "Session append() calls accepted"},
    {"cordon_session_resumes_total",
     "Appends served incrementally from saved solver state"},
    {"cordon_session_cold_solves_total",
     "Appends that fell back to a cold solve of the grown instance"},
    {"cordon_session_journal_writes_total",
     "Durable session-journal records written"},
    {"cordon_session_journal_errors_total",
     "Session-journal write or open failures (session poisoned)"},
    {"cordon_sessions_recovered_total",
     "Sessions rebuilt from journals by CordonService::recover"},
}};

inline constexpr std::array<MetricInfo, kNumGauges> kGaugeInfo{{
    {"cordon_sched_deque_jobs",
     "Jobs currently published across all worker deques"},
    {"cordon_sched_parked_workers", "Workers currently asleep in the OS"},
    {"cordon_service_queue_depth",
     "Requests admitted but not yet dispatched"},
    {"cordon_service_open_sessions",
     "Solve sessions created and not yet closed"},
}};

/// Histogram samples are recorded in nanoseconds; the writer exposes
/// them in seconds (hence the 1e-9 scale on every bucket bound).
inline constexpr std::array<MetricInfo, kNumHistograms> kHistogramInfo{{
    {"cordon_service_submit_latency_seconds",
     "submit() wall time: byte key, hash, cache probe, enqueue"},
    {"cordon_service_queue_wait_seconds",
     "Admission-to-dispatch wait per request (behind the running batch)"},
    {"cordon_service_batch_solve_seconds",
     "BatchExecutor wall time per dispatched service batch"},
    {"cordon_service_reject_wait_seconds",
     "Admission-to-rejection wait for shed/expired/cancelled requests"},
    {"cordon_solver_round_seconds",
     "One phase-parallel solver round (recorded only while tracing is "
     "enabled)"},
}};

namespace detail {

// One writer at a time per worker slot (the scheduler's identity
// contract); the final shared slot absorbs outsider threads, which is
// why everything is atomic even though workers never contend.
struct alignas(128) MetricSlot {
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
  std::array<std::atomic<std::int64_t>, kNumGauges> gauges{};
  std::array<std::array<std::atomic<std::uint64_t>, kHistogramBuckets>,
             kNumHistograms>
      histogram_buckets{};
  std::array<std::atomic<std::uint64_t>, kNumHistograms> histogram_sums{};
};

/// Index of the calling thread's slot: worker id for live workers, the
/// extra shared slot for outsiders.
inline std::size_t slot_index() noexcept {
  return parallel::is_worker_thread() ? parallel::worker_id()
                                      : parallel::worker_slots();
}

/// The slot registry: worker_slots() + 1 entries, created on first use,
/// leaked on purpose (threads alive at exit must not race a dtor).
inline std::vector<MetricSlot>& registry() {
  static std::vector<MetricSlot>& slots =
      *new std::vector<MetricSlot>(parallel::worker_slots() + 1);
  return slots;
}

inline MetricSlot& slot() { return registry()[slot_index()]; }

}  // namespace detail

inline void count(Counter c, std::uint64_t n = 1) noexcept {
  if constexpr (!kEnabled) return;
  detail::slot().counters[static_cast<std::size_t>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

inline void gauge_add(Gauge g, std::int64_t delta) noexcept {
  if constexpr (!kEnabled) return;
  detail::slot().gauges[static_cast<std::size_t>(g)].fetch_add(
      delta, std::memory_order_relaxed);
}

inline void observe(Histogram h, std::uint64_t value) noexcept {
  if constexpr (!kEnabled) return;
  std::size_t bucket = static_cast<std::size_t>(std::bit_width(value));
  if (bucket >= kHistogramBuckets) bucket = kHistogramBuckets - 1;
  detail::MetricSlot& s = detail::slot();
  s.histogram_buckets[static_cast<std::size_t>(h)][bucket].fetch_add(
      1, std::memory_order_relaxed);
  s.histogram_sums[static_cast<std::size_t>(h)].fetch_add(
      value, std::memory_order_relaxed);
}

/// A merged view of every slot, cheap to copy and subtract.  Counters
/// and histograms are monotonic so `delta_since` is exact; gauges are
/// levels and carry over unchanged.
struct Snapshot {
  struct HistogramView {
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t sum = 0;

    [[nodiscard]] std::uint64_t count() const noexcept {
      std::uint64_t total = 0;
      for (std::uint64_t b : buckets) total += b;
      return total;
    }
  };

  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::int64_t, kNumGauges> gauges{};
  std::array<HistogramView, kNumHistograms> histograms{};

  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::int64_t gauge(Gauge g) const noexcept {
    return gauges[static_cast<std::size_t>(g)];
  }
  [[nodiscard]] const HistogramView& histogram(Histogram h) const noexcept {
    return histograms[static_cast<std::size_t>(h)];
  }

  /// Monotonic metrics as the increase since `base`; gauges stay at
  /// this snapshot's (current) level.
  [[nodiscard]] Snapshot delta_since(const Snapshot& base) const noexcept {
    Snapshot d = *this;
    for (std::size_t i = 0; i < kNumCounters; ++i)
      d.counters[i] -= base.counters[i];
    for (std::size_t i = 0; i < kNumHistograms; ++i) {
      d.histograms[i].sum -= base.histograms[i].sum;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b)
        d.histograms[i].buckets[b] -= base.histograms[i].buckets[b];
    }
    return d;
  }
};

/// Folds every slot (relaxed reads: a concurrent writer's increment may
/// be missed this snapshot and caught by the next — never torn).
inline Snapshot snapshot() {
  Snapshot out;
  if constexpr (!kEnabled) return out;
  for (const detail::MetricSlot& s : detail::registry()) {
    for (std::size_t i = 0; i < kNumCounters; ++i)
      out.counters[i] += s.counters[i].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kNumGauges; ++i)
      out.gauges[i] += s.gauges[i].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kNumHistograms; ++i) {
      out.histograms[i].sum +=
          s.histogram_sums[i].load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b)
        out.histograms[i].buckets[b] +=
            s.histogram_buckets[i][b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

/// Prometheus text exposition of one snapshot: every counter as
/// `*_total`, gauges as levels, histograms with cumulative `le` buckets
/// in seconds.  Empty trailing buckets are elided (the `+Inf` bucket is
/// always present).
inline void write_prometheus(std::ostream& os, const Snapshot& snap) {
  char buf[160];
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const MetricInfo& m = kCounterInfo[i];
    os << "# HELP " << m.name << ' ' << m.help << "\n# TYPE " << m.name
       << " counter\n"
       << m.name << ' ' << snap.counters[i] << '\n';
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    const MetricInfo& m = kGaugeInfo[i];
    os << "# HELP " << m.name << ' ' << m.help << "\n# TYPE " << m.name
       << " gauge\n"
       << m.name << ' ' << snap.gauges[i] << '\n';
  }
  for (std::size_t i = 0; i < kNumHistograms; ++i) {
    const MetricInfo& m = kHistogramInfo[i];
    const Snapshot::HistogramView& h = snap.histograms[i];
    os << "# HELP " << m.name << ' ' << m.help << "\n# TYPE " << m.name
       << " histogram\n";
    std::size_t last = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
      if (h.buckets[b] != 0) last = b;
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b <= last; ++b) {
      cumulative += h.buckets[b];
      // Upper bound of bucket b is 2^b ns (bucket 0 holds the value 0,
      // bound 1 ns), exposed in seconds.
      double le = static_cast<double>(b == 0 ? 1 : (std::uint64_t{1} << b)) *
                  1e-9;
      std::snprintf(buf, sizeof buf, "%s_bucket{le=\"%.10g\"} %llu\n", m.name,
                    le, static_cast<unsigned long long>(cumulative));
      os << buf;
    }
    std::snprintf(buf, sizeof buf, "%s_bucket{le=\"+Inf\"} %llu\n", m.name,
                  static_cast<unsigned long long>(h.count()));
    os << buf;
    std::snprintf(buf, sizeof buf, "%s_sum %.10g\n%s_count %llu\n", m.name,
                  static_cast<double>(h.sum) * 1e-9, m.name,
                  static_cast<unsigned long long>(h.count()));
    os << buf;
  }
}

}  // namespace cordon::telemetry
