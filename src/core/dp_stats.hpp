// Machine-independent work/span counters.
//
// Every algorithm in the library reports what it actually did: how many
// states it touched, how many transitions (relaxations) it evaluated, and
// how many phase-parallel rounds it ran.  These are the quantities the
// paper's theorems bound (work ~ relaxations x log n, span ~ rounds x
// polylog), so tests and benchmarks can check work-efficiency claims
// directly instead of inferring them from wall-clock on a particular
// machine.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <span>

#include "src/core/arena.hpp"
#include "src/parallel/scheduler.hpp"

namespace cordon::core {

/// One named stat value, the unit shared by every serialization of the
/// stats structs below: the stream operators, the service's
/// `metrics_text()` Prometheus exposition, and the bench JSON records
/// all iterate the same `to_json_fields()` arrays, so adding a field to
/// a struct propagates everywhere at once.  `monotonic` distinguishes
/// counters (exposed as `*_total`) from level/ratio gauges;
/// `integral` picks the stream formatting (counters print as integers,
/// ratios as doubles).
struct StatField {
  const char* name;
  double value;
  bool monotonic = true;
  bool integral = true;
};

namespace detail {

template <std::size_t N>
std::ostream& write_fields(std::ostream& os,
                           const std::array<StatField, N>& fields) {
  os << '{';
  for (std::size_t i = 0; i < N; ++i) {
    if (i != 0) os << ", ";
    os << fields[i].name << '=';
    if (fields[i].integral)
      os << static_cast<std::uint64_t>(fields[i].value);
    else
      os << fields[i].value;
  }
  return os << '}';
}

}  // namespace detail

/// Which algorithm actually produced a result.  The `*_auto` family
/// entry points record the routing decision of the adaptive sequential
/// cutoff (src/core/cutoff.hpp) here, and the engine surfaces it in
/// SolveResult so tests and benches can assert which path ran instead
/// of guessing from timings.
enum class SolvePath : std::uint8_t {
  kParallel = 0,          // a parallel body ran
  kSequentialCutoff = 1,  // sequential algorithm via the adaptive cutoff
  kResumed = 2,           // incremental re-solve from a session checkpoint
};

/// Stable label for JSON records and test messages.
inline const char* solve_path_name(SolvePath p) noexcept {
  switch (p) {
    case SolvePath::kSequentialCutoff:
      return "sequential_cutoff";
    case SolvePath::kResumed:
      return "resumed";
    default:
      return "parallel";
  }
}

/// Counters accumulated by one algorithm run.  `relaxations` counts cost
/// function / DP-value evaluations (the unit of "work" in the paper's
/// bounds); `states` counts state visits including wasted prefix-doubling
/// probes; `rounds` counts phase-parallel rounds (the span driver).
struct DpStats {
  std::uint64_t states = 0;
  std::uint64_t relaxations = 0;
  std::uint64_t rounds = 0;

  DpStats& operator+=(const DpStats& o) {
    states += o.states;
    relaxations += o.relaxations;
    rounds += o.rounds;
    return *this;
  }
};

inline std::ostream& operator<<(std::ostream& os, const DpStats& s) {
  return os << "{states=" << s.states << ", relaxations=" << s.relaxations
            << ", rounds=" << s.rounds << "}";
}

/// Aggregate over a batch of independent solver requests (the engine's
/// BatchExecutor feeds one `add` per request).  Sums are work-like
/// quantities; maxima are span-like: `max_rounds` is the deepest request
/// (the batch's critical path in phase-parallel rounds) and
/// `max_effective_depth` the largest known effective depth d^(G) among
/// requests that report one (0 when none do).
struct BatchStats {
  std::uint64_t requests = 0;
  DpStats total;
  std::uint64_t max_rounds = 0;
  std::uint64_t max_effective_depth = 0;
  double total_latency_s = 0;
  double max_latency_s = 0;

  void add(const DpStats& s, double latency_s,
           std::uint64_t effective_depth = 0) {
    ++requests;
    total += s;
    if (s.rounds > max_rounds) max_rounds = s.rounds;
    if (effective_depth > max_effective_depth)
      max_effective_depth = effective_depth;
    total_latency_s += latency_s;
    if (latency_s > max_latency_s) max_latency_s = latency_s;
  }

  /// Merge another aggregate (the service folds one BatchExecutor report
  /// per dispatched batch into a lifetime total).
  BatchStats& operator+=(const BatchStats& o) {
    requests += o.requests;
    total += o.total;
    if (o.max_rounds > max_rounds) max_rounds = o.max_rounds;
    if (o.max_effective_depth > max_effective_depth)
      max_effective_depth = o.max_effective_depth;
    total_latency_s += o.total_latency_s;
    if (o.max_latency_s > max_latency_s) max_latency_s = o.max_latency_s;
    return *this;
  }

  [[nodiscard]] double mean_latency_s() const {
    return requests == 0 ? 0.0 : total_latency_s / static_cast<double>(requests);
  }
};

inline std::ostream& operator<<(std::ostream& os, const BatchStats& s) {
  return os << "{requests=" << s.requests << ", total=" << s.total
            << ", max_rounds=" << s.max_rounds
            << ", max_effective_depth=" << s.max_effective_depth
            << ", mean_latency_s=" << s.mean_latency_s()
            << ", max_latency_s=" << s.max_latency_s << "}";
}

/// Result-cache counters (the service layer's sharded LRU reports these;
/// shards each keep their own copy and `operator+=` folds them).  A hit
/// means a request was answered without running any solver.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  CacheStats& operator+=(const CacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    insertions += o.insertions;
    evictions += o.evictions;
    return *this;
  }

  [[nodiscard]] double hit_rate() const {
    std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) / static_cast<double>(lookups);
  }

  /// The canonical field list consumed by operator<< and metrics_text().
  [[nodiscard]] std::array<StatField, 5> to_json_fields() const {
    return {{{"hits", static_cast<double>(hits)},
             {"misses", static_cast<double>(misses)},
             {"insertions", static_cast<double>(insertions)},
             {"evictions", static_cast<double>(evictions)},
             {"hit_rate", hit_rate(), /*monotonic=*/false,
              /*integral=*/false}}};
  }
};

inline std::ostream& operator<<(std::ostream& os, const CacheStats& s) {
  return detail::write_fields(os, s.to_json_fields());
}

/// Admission-queue latency counters: how long requests sat between
/// `submit` and the dispatcher picking them up (the wait behind the
/// running batch, separate from solver latency which BatchStats tracks).
struct QueueStats {
  std::uint64_t enqueued = 0;
  double total_wait_s = 0;
  double max_wait_s = 0;

  void add(double wait_s) {
    ++enqueued;
    total_wait_s += wait_s;
    if (wait_s > max_wait_s) max_wait_s = wait_s;
  }

  QueueStats& operator+=(const QueueStats& o) {
    enqueued += o.enqueued;
    total_wait_s += o.total_wait_s;
    if (o.max_wait_s > max_wait_s) max_wait_s = o.max_wait_s;
    return *this;
  }

  [[nodiscard]] double mean_wait_s() const {
    return enqueued == 0 ? 0.0
                         : total_wait_s / static_cast<double>(enqueued);
  }

  /// The canonical field list consumed by operator<< and metrics_text().
  [[nodiscard]] std::array<StatField, 3> to_json_fields() const {
    return {{{"enqueued", static_cast<double>(enqueued)},
             {"mean_wait_s", mean_wait_s(), /*monotonic=*/false,
              /*integral=*/false},
             {"max_wait_s", max_wait_s, /*monotonic=*/false,
              /*integral=*/false}}};
  }
};

inline std::ostream& operator<<(std::ostream& os, const QueueStats& s) {
  return detail::write_fields(os, s.to_json_fields());
}

/// Thread-safe accumulator used inside parallel loops; convert to DpStats
/// at the end of a run.
///
/// Storage: one shard per scheduler worker slot, each on its own 128
/// bytes (a cache line plus the neighbour the adjacent-line prefetcher
/// pulls in, as for the arena and telemetry slots), carved from the
/// constructing thread's scratch arena, so a warm worker allocates
/// nothing per solve.
///
/// An add touches only the calling worker's shard, and each shard has
/// one writer: the threads that run a solve's forks are live workers
/// with distinct worker_id()s, and a thread that is not a live worker
/// (id 0, or a stale id after a pool restart) runs its forks inline, so
/// nothing else writes its stats object while it does.  An add is
/// therefore a relaxed load plus a relaxed store on a line no other
/// thread writes, with no locked read-modify-write.  `snapshot()` sums
/// the shards; it is exact once the forks that added have joined (round
/// boundaries, end of run) and a never-torn lower bound while they run.
///
/// Lifetime: a LIFO arena epoch like any other per-solve scratch, so an
/// AtomicDpStats lives on the stack of the thread that built it.
class AtomicDpStats {
 public:
  AtomicDpStats()
      : scope_(worker_arena()),
        shards_(scope_.arena().make_span<Shard>(parallel::worker_slots(),
                                                Shard{})) {}
  AtomicDpStats(const AtomicDpStats&) = delete;
  AtomicDpStats& operator=(const AtomicDpStats&) = delete;

  void add_states(std::uint64_t n) noexcept { bump(mine().states, n); }
  void add_relaxations(std::uint64_t n) noexcept {
    bump(mine().relaxations, n);
  }
  void add_round() noexcept { bump(mine().rounds, 1); }

  [[nodiscard]] DpStats snapshot() const noexcept {
    DpStats out;
    for (Shard& s : shards_) {
      out.states += read(s.states);
      out.relaxations += read(s.relaxations);
      out.rounds += read(s.rounds);
    }
    return out;
  }

 private:
  struct alignas(128) Shard {
    std::uint64_t states = 0;
    std::uint64_t relaxations = 0;
    std::uint64_t rounds = 0;
  };

  Shard& mine() const noexcept { return shards_[parallel::worker_id()]; }

  static void bump(std::uint64_t& counter, std::uint64_t n) noexcept {
    std::atomic_ref<std::uint64_t> c(counter);
    // order: relaxed — the calling worker is this shard's only writer
    // (see the class comment), so load-then-store loses no update; the
    // pool's join is what orders it before snapshot() reads it.
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  static std::uint64_t read(std::uint64_t& counter) noexcept {
    // order: relaxed — a count, not a publication: the joins that end a
    // round or a run order every shard store before this load.
    return std::atomic_ref<std::uint64_t>(counter).load(
        std::memory_order_relaxed);
  }

  ArenaScope scope_;
  std::span<Shard> shards_;
};

}  // namespace cordon::core
