// cordon::telemetry — span tracing (chrome://tracing / Perfetto JSON).
//
// A per-worker-slot ring buffer of fixed-size events, written with
// relaxed atomics and dumped as a Chrome Trace Event Format JSON array
// that chrome://tracing and https://ui.perfetto.dev load directly.
// Spans are recorded as "X" (complete) events — one record carrying
// begin timestamp + duration, written at scope exit — so begin/end
// pairs are matched by construction and a wrapped ring can never strand
// half a span.  Point events ("wake", "adopt") are "i" instants.
//
// Recording costs two clock reads and one ring store per span and only
// happens while tracing is enabled, so instrumentation can sit in paths
// as hot as the scheduler's park/wake edges.  When the ring wraps, the
// oldest events are overwritten: a trace is the *most recent* window of
// activity per worker, sized by CORDON_TRACE_EVENTS (default 8192
// events/worker, rounded up to a power of two).
//
// Enabling:
//   * `CORDON_TRACE=trace.json ./cordon_cli solve ...` — tracing turns
//     on at first use and the trace is flushed to the file at process
//     exit (std::atexit).  Works for any binary, no CLI support needed.
//   * programmatic: `set_trace_enabled(true)` ... `trace_write_file(p)`.
//
// Thread-safety: every event field is a relaxed atomic, so a dump that
// races a writer reads torn-but-valid values (a garbled name pointer is
// impossible — names are static strings stored whole).  For coherent
// traces, dump at quiescence (after joins / service shutdown), which is
// what the atexit hook and the CLI both do.  Event name/category
// strings MUST have static storage duration; only the pointer is
// stored.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cancel.hpp"
#include "src/core/telemetry.hpp"

namespace cordon::telemetry {

namespace detail {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One ring entry.  `name == nullptr` marks a never-written slot.  All
// fields relaxed-atomic so a concurrent dump is race-free (see header
// comment for the torn-read contract).
struct TraceEvent {
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> cat{nullptr};
  std::atomic<std::uint64_t> ts_ns{0};
  std::atomic<std::uint64_t> dur_ns{0};
  std::atomic<char> phase{'X'};
  std::atomic<const char*> arg_name0{nullptr};
  std::atomic<std::uint64_t> arg_val0{0};
  std::atomic<const char*> arg_name1{nullptr};
  std::atomic<std::uint64_t> arg_val1{0};
};

struct alignas(128) TraceRing {
  std::vector<TraceEvent> events;  // size set once at registry creation
  std::atomic<std::uint64_t> next{0};

  void record(const char* name, const char* cat, char phase,
              std::uint64_t ts_ns, std::uint64_t dur_ns,
              const char* an0, std::uint64_t av0, const char* an1,
              std::uint64_t av1) noexcept {
    std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
    TraceEvent& e = events[i & (events.size() - 1)];
    e.cat.store(cat, std::memory_order_relaxed);
    e.ts_ns.store(ts_ns, std::memory_order_relaxed);
    e.dur_ns.store(dur_ns, std::memory_order_relaxed);
    e.phase.store(phase, std::memory_order_relaxed);
    e.arg_name0.store(an0, std::memory_order_relaxed);
    e.arg_val0.store(av0, std::memory_order_relaxed);
    e.arg_name1.store(an1, std::memory_order_relaxed);
    e.arg_val1.store(av1, std::memory_order_relaxed);
    e.name.store(name, std::memory_order_relaxed);
  }
};

inline std::size_t ring_capacity() {
  static std::size_t cap = [] {
    std::size_t n = 8192;
    if (const char* s = std::getenv("CORDON_TRACE_EVENTS")) {
      long v = std::atol(s);
      if (v > 0) n = static_cast<std::size_t>(v);
    }
    return std::bit_ceil(n < 2 ? std::size_t{2} : n);
  }();
  return cap;
}

// Ring registry mirrors the metric-slot registry: one ring per worker
// slot plus a shared outsider ring, created lazily and leaked.
inline std::vector<TraceRing>& trace_rings() {
  static std::vector<TraceRing>& rings = *[] {
    auto* r = new std::vector<TraceRing>(parallel::worker_slots() + 1);
    for (TraceRing& ring : *r)
      ring.events = std::vector<TraceEvent>(ring_capacity());
    return r;
  }();
  return rings;
}

inline std::atomic<bool>& trace_flag() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}

void init_from_env();  // defined below, needs trace_write_file

}  // namespace detail

/// True while span/instant recording is armed.  First call consults the
/// CORDON_TRACE environment variable (which also registers an atexit
/// flush to the named file).
inline bool trace_enabled() noexcept {
  if constexpr (!kEnabled) return false;
  static bool env_checked = (detail::init_from_env(), true);
  (void)env_checked;
  return detail::trace_flag().load(std::memory_order_relaxed);
}

inline void set_trace_enabled(bool on) noexcept {
  if constexpr (!kEnabled) return;
  detail::trace_flag().store(on, std::memory_order_relaxed);
}

/// Drops all recorded events (test helper; not safe concurrently with
/// recording threads).
inline void trace_reset() {
  if constexpr (!kEnabled) return;
  for (detail::TraceRing& ring : detail::trace_rings()) {
    for (detail::TraceEvent& e : ring.events)
      e.name.store(nullptr, std::memory_order_relaxed);
    ring.next.store(0, std::memory_order_relaxed);
  }
}

/// Records a zero-duration instant event on the calling thread's track.
inline void trace_instant(const char* name, const char* cat) noexcept {
  if constexpr (!kEnabled) return;
  if (!trace_enabled()) return;
  detail::trace_rings()[detail::slot_index()].record(
      name, cat, 'i', detail::now_ns(), 0, nullptr, 0, nullptr, 0);
}

/// RAII span: records one "X" complete event covering the scope's
/// lifetime on the calling thread's track.  Costs nothing when tracing
/// is disabled at construction.  Up to two integer args attach to the
/// span (shown in the Perfetto detail pane); key strings must be
/// static.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat) noexcept {
    if constexpr (!kEnabled) return;
    if (!trace_enabled()) return;
    name_ = name;
    cat_ = cat;
    start_ns_ = detail::now_ns();
  }

  TraceSpan& arg(const char* key, std::uint64_t value) noexcept {
    if (name_ == nullptr) return *this;
    if (arg_name0_ == nullptr) {
      arg_name0_ = key;
      arg_val0_ = value;
    } else {
      arg_name1_ = key;
      arg_val1_ = value;
    }
    return *this;
  }

  ~TraceSpan() {
    if constexpr (!kEnabled) return;
    if (name_ == nullptr) return;
    std::uint64_t end = detail::now_ns();
    detail::trace_rings()[detail::slot_index()].record(
        name_, cat_, 'X', start_ns_, end - start_ns_, arg_name0_, arg_val0_,
        arg_name1_, arg_val1_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True when this span is live (tracing was on at construction).
  [[nodiscard]] bool armed() const noexcept { return name_ != nullptr; }

  /// Begin timestamp (ns); 0 when not armed.
  [[nodiscard]] std::uint64_t start_ns() const noexcept { return start_ns_; }

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::uint64_t start_ns_ = 0;
  const char* arg_name0_ = nullptr;
  std::uint64_t arg_val0_ = 0;
  const char* arg_name1_ = nullptr;
  std::uint64_t arg_val1_ = 0;
};

namespace detail {

struct DumpEvent {
  const char* name;
  const char* cat;
  std::uint64_t ts_ns;
  std::uint64_t dur_ns;
  char phase;
  std::size_t tid;
  const char* arg_name0;
  std::uint64_t arg_val0;
  const char* arg_name1;
  std::uint64_t arg_val1;
};

inline void append_json_event(std::string& out, const DumpEvent& e) {
  char buf[256];
  // ts/dur are microseconds in the Trace Event Format; keep ns
  // precision with fractional µs.
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"pid\":1,"
                "\"tid\":%zu,\"ts\":%.3f",
                e.name, e.cat == nullptr ? "cordon" : e.cat, e.phase, e.tid,
                static_cast<double>(e.ts_ns) / 1000.0);
  out += buf;
  if (e.phase == 'X') {
    std::snprintf(buf, sizeof buf, ",\"dur\":%.3f",
                  static_cast<double>(e.dur_ns) / 1000.0);
    out += buf;
  }
  if (e.phase == 'i') out += ",\"s\":\"t\"";
  if (e.arg_name0 != nullptr) {
    std::snprintf(buf, sizeof buf, ",\"args\":{\"%s\":%llu", e.arg_name0,
                  static_cast<unsigned long long>(e.arg_val0));
    out += buf;
    if (e.arg_name1 != nullptr) {
      std::snprintf(buf, sizeof buf, ",\"%s\":%llu", e.arg_name1,
                    static_cast<unsigned long long>(e.arg_val1));
      out += buf;
    }
    out += '}';
  }
  out += '}';
}

}  // namespace detail

/// Serializes every recorded event as a Trace Event Format JSON object:
/// `{"traceEvents":[...]}`.  Events are sorted by timestamp (ties:
/// longer spans first, so enclosing spans precede their children as the
/// format expects).  Call at quiescence for a coherent trace.
inline void trace_write(std::ostream& os) {
  std::vector<detail::DumpEvent> all;
  if constexpr (kEnabled) {
    std::vector<detail::TraceRing>& rings = detail::trace_rings();
    for (std::size_t tid = 0; tid < rings.size(); ++tid) {
      for (const detail::TraceEvent& e : rings[tid].events) {
        const char* name = e.name.load(std::memory_order_relaxed);
        if (name == nullptr) continue;
        all.push_back({name, e.cat.load(std::memory_order_relaxed),
                       e.ts_ns.load(std::memory_order_relaxed),
                       e.dur_ns.load(std::memory_order_relaxed),
                       e.phase.load(std::memory_order_relaxed), tid,
                       e.arg_name0.load(std::memory_order_relaxed),
                       e.arg_val0.load(std::memory_order_relaxed),
                       e.arg_name1.load(std::memory_order_relaxed),
                       e.arg_val1.load(std::memory_order_relaxed)});
      }
    }
  }
  std::sort(all.begin(), all.end(),
            [](const detail::DumpEvent& a, const detail::DumpEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.dur_ns > b.dur_ns;
            });

  std::string out;
  out.reserve(96 * all.size() + 256);
  out += "{\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata rows so Perfetto labels tracks meaningfully.
  std::size_t workers = parallel::num_workers();
  std::size_t slots = parallel::worker_slots();
  for (std::size_t tid = 0; tid <= slots; ++tid) {
    char buf[160];
    char label[48];
    if (tid < workers)
      std::snprintf(label, sizeof label, "worker %zu", tid);
    else if (tid < slots)
      std::snprintf(label, sizeof label, "external %zu", tid - workers);
    else
      std::snprintf(label, sizeof label, "outsider");
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", tid, label);
    out += buf;
    first = false;
  }
  for (const detail::DumpEvent& e : all) {
    if (!first) out += ',';
    first = false;
    detail::append_json_event(out, e);
  }
  out += "]}";
  os << out << '\n';
}

/// trace_write to a file; returns false if the file cannot be opened.
inline bool trace_write_file(const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  trace_write(f);
  return f.good();
}

namespace detail {

inline void init_from_env() {
  static const char* path = std::getenv("CORDON_TRACE");
  if (path == nullptr || *path == '\0') return;
  trace_flag().store(true, std::memory_order_relaxed);
  static bool registered = [] {
    std::atexit([] {
      const char* p = std::getenv("CORDON_TRACE");
      if (p != nullptr && *p != '\0') trace_write_file(p);
    });
    return true;
  }();
  (void)registered;
}

}  // namespace detail

/// RAII span for one solver phase round.  Always bumps the global
/// round/state/relaxation counters (a handful of relaxed adds — cheap
/// enough for always-on); records a trace span with the round's
/// DpStats delta and a round-latency histogram sample only while
/// tracing is enabled, so the two extra clock reads stay off the
/// hot path of ~µs rounds.  Works with both core::DpStats (members read
/// directly) and core::AtomicDpStats (read through snapshot(), a sum
/// over its per-worker shards; see read()).
template <typename StatsT>
class RoundSpan {
 public:
  RoundSpan(const char* name, const StatsT& stats)
      : stats_(stats), span_(name, "solver") {
    // The per-round cancellation/deadline check rides the one hook every
    // solver already constructs each round; it must run even with
    // -DCORDON_TELEMETRY=OFF, so it sits before the kEnabled gate.  May
    // throw core::SolveError (hence this constructor is not noexcept);
    // round boundaries sit inside BatchExecutor's containment try or on
    // a top-level caller's stack, both throw-safe.
    core::poll_cancel();
    if constexpr (!kEnabled) return;
    auto base = read(stats);
    base_states_ = base.first;
    base_relax_ = base.second;
  }

  ~RoundSpan() {
    if constexpr (!kEnabled) return;
    count(Counter::kSolverRounds);
    auto now = read(stats_);
    std::uint64_t dstates = now.first - base_states_;
    std::uint64_t drelax = now.second - base_relax_;
    count(Counter::kSolverStates, dstates);
    count(Counter::kSolverRelaxations, drelax);
    if (span_.armed()) {
      span_.arg("states", dstates).arg("relaxations", drelax);
      observe(Histogram::kSolverRoundNs, detail::now_ns() - span_.start_ns());
      // dtor order: span_ destructs after this body, recording the event.
    }
  }

  RoundSpan(const RoundSpan&) = delete;
  RoundSpan& operator=(const RoundSpan&) = delete;

 private:
  // Called only at round boundaries — the span opens before the round
  // forks and closes after its last join — so the shard sum of an
  // AtomicDpStats is exact here, and costs one pass over the worker
  // slots at each end of the round rather than anything per relaxation.
  template <typename S>
  static auto read(const S& s) noexcept
      -> std::pair<std::uint64_t, std::uint64_t> {
    if constexpr (requires { s.snapshot(); }) {
      auto snap = s.snapshot();
      return {static_cast<std::uint64_t>(snap.states),
              static_cast<std::uint64_t>(snap.relaxations)};
    } else {
      return {static_cast<std::uint64_t>(s.states),
              static_cast<std::uint64_t>(s.relaxations)};
    }
  }

  const StatsT& stats_;
  std::uint64_t base_states_ = 0;
  std::uint64_t base_relax_ = 0;
  TraceSpan span_;
};

}  // namespace cordon::telemetry
