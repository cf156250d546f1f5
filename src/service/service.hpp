// CordonService: the always-on asynchronous front door of the engine.
//
// Where BatchExecutor must be handed a whole queue up front and blocks
// until it drains, CordonService accepts `submit(Instance)` from any
// number of client threads and returns a std::future<SolveResult>
// immediately.  Behind the API:
//
//   1. submit() keys the instance on its fields' raw bytes
//      (engine::canonical_key: one copy and a word-at-a-time hash, no
//      text) and probes the sharded LRU result cache — a hit is one
//      byte compare and completes the future on the spot without
//      touching the solver or the queue.
//   2. A miss appends the request to the admission queue.  A dedicated
//      dispatcher thread takes whatever is queued, up to `max_batch`, as
//      soon as it wakes, so a miss waits only for the batch already
//      running; identical instances inside a batch collapse to one
//      solve, and a re-probe of the cache at dispatch catches keys the
//      running batch solved.
//   3. The batch runs through BatchExecutor on the shared work-stealing
//      pool (the dispatcher adopts an external worker slot, so nested
//      intra-instance parallelism works exactly as from main()), results
//      are inserted into the cache, and every waiting future completes.
//
// Threading guarantees: submit(), stats(), cache_size(), and shutdown()
// are all safe to call concurrently from any thread.  Futures may be
// waited on from any thread.  A solver failure (unknown kind, solver
// threw) surfaces as an exception on that request's future; it never
// takes down the service, is never cached, and other requests in the
// same batch are unaffected.  The destructor drains every already
// submitted request before returning, so no future is ever abandoned.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/cancel.hpp"
#include "src/core/dp_stats.hpp"
#include "src/engine/batch_executor.hpp"
#include "src/engine/delta.hpp"
#include "src/engine/instance.hpp"
#include "src/engine/registry.hpp"
#include "src/service/journal.hpp"
#include "src/service/sharded_cache.hpp"

namespace cordon::service {

/// What submit() does when the admission queue is at max_queue.
enum class OverloadPolicy {
  /// Fail the NEW request with SolveError{kShed} carrying a retry-after
  /// hint (clients that can back off should).
  kRejectNew,
  /// Admit the new request and fail the OLDEST queued one with
  /// SolveError{kShed} (freshest-work-wins; suits deadline-bound
  /// clients whose oldest request is the most likely to be useless).
  kShedOldest,
};

struct ServiceOptions {
  /// Largest batch handed to the executor in one dispatch.  The
  /// dispatcher never waits for a batch to fill: it takes what is
  /// queued, up to this many, each time it wakes.
  std::size_t max_batch = 64;
  /// Total result-cache entries across all shards; 0 disables caching.
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = 16;
  /// Solve with the naive oracle instead of the optimized algorithm
  /// (cross-validation workloads).
  bool use_reference = false;
  /// Admission-queue bound; 0 = unbounded (no overload protection).
  std::size_t max_queue = 0;
  /// Overload behavior when the queue is full (see OverloadPolicy).
  OverloadPolicy overload_policy = OverloadPolicy::kRejectNew;
  /// Directory for durable per-session journals (created sessions write
  /// a journal, recover() replays them).  Empty = journaling off.  The
  /// directory must already exist.
  std::string journal_dir{};
};

/// Per-request options for submit().
struct SubmitOptions {
  /// Relative deadline, applied as an absolute steady-clock deadline at
  /// submit time; zero = none.  An expired request fails its future
  /// with SolveError{kDeadlineExceeded} — at dispatch when it already
  /// blew (or provably will blow) the deadline, or mid-solve at the
  /// next solver round boundary.
  std::chrono::nanoseconds timeout{0};
  /// Caller-held cancellation handle (token->cancel() fails the future
  /// with SolveError{kCancelled} at the next round boundary).  Created
  /// on demand when only `timeout` is set; must outlive the future's
  /// completion when supplied.
  std::shared_ptr<core::CancelToken> token;
};

/// Lifetime counters, readable at any time via CordonService::stats().
struct ServiceStats {
  std::uint64_t submitted = 0;       // every submit() call
  std::uint64_t completed = 0;       // futures fulfilled with a result
  std::uint64_t failed = 0;          // futures fulfilled with an exception
  std::uint64_t batches = 0;         // dispatcher batches executed
  std::uint64_t coalesced = 0;       // duplicate requests merged in-batch
  std::size_t largest_batch = 0;     // most requests in one dispatch
  std::uint64_t sessions_created = 0;    // create_session() successes
  std::uint64_t sessions_closed = 0;     // close_session() calls
  std::uint64_t session_appends = 0;     // append() futures fulfilled OK
  std::uint64_t session_resumes = 0;     // appends served from saved state
  std::uint64_t session_cold_solves = 0; // appends that solved from scratch
  std::uint64_t shed = 0;            // requests rejected by admission control
  std::uint64_t expired = 0;         // deadline blown or unmeetable
  std::uint64_t cancelled = 0;       // failed through their cancel token
  std::uint64_t journal_writes = 0;  // durable journal records written
  std::uint64_t journal_errors = 0;  // journal failures (session poisoned)
  std::uint64_t sessions_recovered = 0;  // sessions rebuilt by recover()
  core::CacheStats cache;            // hits / misses / evictions
  core::QueueStats queue;            // submit -> dispatch wait times
  core::BatchStats solver;           // aggregate over executed solves
};

/// Monitoring snapshot of one open session (CordonService::session_info).
struct SessionInfo {
  std::uint64_t id = 0;
  std::string kind;
  std::uint64_t version = 0;      // deltas applied so far (base = 0)
  std::uint64_t base_hash = 0;    // FNV-1a of the base's canonical text
  bool incremental = false;       // family capability (not per-append fate)
  std::uint64_t resumes = 0;      // appends served from saved state
  std::uint64_t cold_solves = 0;  // appends that fell back to a cold solve
  bool poisoned = false;          // journal failure froze the lineage
  bool durable = false;           // session carries a live journal
};

class CordonService {
 public:
  /// Starts the dispatcher thread.  The registry must outlive the
  /// service.
  explicit CordonService(ServiceOptions opt = {},
                         const engine::ProblemRegistry& reg =
                             engine::builtin_registry());

  /// Drains all pending requests, then joins the dispatcher.
  ~CordonService();

  CordonService(const CordonService&) = delete;
  CordonService& operator=(const CordonService&) = delete;

  /// Asynchronous admission: returns immediately.  Cache hits complete
  /// the returned future before submit() returns; misses complete once
  /// the dispatcher's batch containing them finishes.  Throws
  /// core::SolveError{kShutdown} (a std::runtime_error) if called after
  /// shutdown().  Every other failure — hostile instance, deadline,
  /// cancellation, overload shedding, solver fault — resolves the
  /// RETURNED FUTURE with a core::SolveError; no other exception type
  /// ever comes out of a submit() future.
  [[nodiscard]] std::future<engine::SolveResult> submit(engine::Instance inst,
                                                       SubmitOptions sopt);

  [[nodiscard]] std::future<engine::SolveResult> submit(
      engine::Instance inst) {
    return submit(std::move(inst), SubmitOptions{});
  }

  /// Replays every journal in options().journal_dir, re-creating the
  /// recorded sessions (same ids, same versions — bit-identical results
  /// to the uninterrupted lineage, the solvers being deterministic) and
  /// re-binding their journals for further appends.  A damaged tail
  /// record — the normal shape of a crash mid-append — is dropped and
  /// the session resumes from the last durable version; a journal whose
  /// base is unusable is skipped (left on disk for inspection).
  /// Returns the recovered session ids.  Call before serving traffic;
  /// throws std::logic_error when journaling is off.
  std::vector<std::uint64_t> recover();

  // --- stateful solve sessions (docs/SESSIONS.md) ---------------------------
  //
  // A session names a base instance plus a linear lineage of append-only
  // deltas.  Each append re-solves the grown instance — incrementally
  // from the family's saved frontier/envelope when it can (lis/lcs/glws
  // under the restricted update model), via transparent cold fallback
  // otherwise; callers never branch on the capability.  Versions are
  // cached under (base hash, version, delta-chain hash) keys, and the
  // base's cache entry (under its byte key, as submit() probes it) is
  // PINNED for the session's lifetime so unrelated traffic cannot evict
  // the lineage's anchor.

  /// Solves `base` synchronously on the calling thread (checkpointing
  /// resumable state), caches the result pinned, and returns the new
  /// session id.  Throws std::invalid_argument for an unknown kind or
  /// invalid instance, std::runtime_error after shutdown().
  [[nodiscard]] std::uint64_t create_session(engine::Instance base);

  /// Applies `delta` on top of the session's current version and
  /// re-solves.  Runs synchronously on the calling thread; the returned
  /// future is already settled (kept as a future so hostile deltas —
  /// over-cap op counts, kind or base_version mismatches — fail THIS
  /// request instead of the process or the session).  Appends on one
  /// session serialize on the session's own mutex; different sessions
  /// run concurrently.  SolveResult::path == kResumed when the append
  /// was served from saved state.
  [[nodiscard]] std::future<engine::SolveResult> append(std::uint64_t id,
                                                       engine::Delta delta);

  /// Forgets the session and unpins its base cache entry.  Appends
  /// already in flight complete; later appends fail their future.
  /// Unknown ids are ignored (idempotent).
  void close_session(std::uint64_t id);

  /// Snapshot of one open session; nullopt after close (or unknown id).
  [[nodiscard]] std::optional<SessionInfo> session_info(
      std::uint64_t id) const;

  /// Stops admission, drains every pending request, joins the
  /// dispatcher.  Idempotent; called by the destructor.
  void shutdown();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] std::size_t cache_size() const;
  [[nodiscard]] const ServiceOptions& options() const noexcept { return opt_; }

  /// Prometheus text exposition of the full observability surface: the
  /// process-wide telemetry registry (scheduler steal/park/wake
  /// counters, solver round/relaxation totals, submit-latency and
  /// queue-wait histograms — see docs/OBSERVABILITY.md for the catalog)
  /// followed by this service's own counters, cache stats (including
  /// hit rate), and queue-wait summary.  Safe to call concurrently with
  /// submits; surfaced by `cordon_cli stress --metrics`.
  [[nodiscard]] std::string metrics_text() const;

 private:
  struct Pending {
    engine::Instance inst;
    engine::InstanceKey key;
    std::promise<engine::SolveResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::shared_ptr<core::CancelToken> token;  // null = not cancellable
    bool done = false;  // promise fulfilled (dispatcher-side bookkeeping)
  };

  /// One open session.  `mu` serializes appends (the lineage is linear
  /// by construction: base_version must match, so concurrent appends on
  /// one session resolve to one winner and one mismatch failure).
  struct Session {
    std::mutex mu;
    const engine::Solver* solver = nullptr;
    engine::Instance current;     // grown in place, amortized O(append)
    std::uint64_t version = 0;
    std::uint64_t base_hash = 0;  // FNV-1a of the base text (journaled)
    std::uint64_t chain_hash = 0; // running hash over applied delta texts
    engine::InstanceKey base_key; // the base's pinned cache key
    std::shared_ptr<const engine::SolverState> state;  // null = cold next
    std::uint64_t resumes = 0;
    std::uint64_t cold_solves = 0;
    std::unique_ptr<SessionJournal> journal;  // null = not durable
    /// Set when a journal write failed AFTER the in-memory lineage
    /// advanced: memory is one step ahead of disk, so further appends
    /// fail (SolveError{kInternal}) instead of widening the divergence.
    /// recover() resumes from the last durable version.
    bool poisoned = false;
  };

  void dispatch_loop();
  void run_batch(std::vector<Pending> taken);
  void run_batch_impl(std::vector<Pending>& taken);
  /// Fails one pending request's future with a typed SolveError and
  /// records the rejection (telemetry + stats + reject-wait histogram).
  void fail_pending(Pending& p, core::SolveErrorCode code,
                    const std::string& msg,
                    std::chrono::nanoseconds retry_after =
                        std::chrono::nanoseconds{0});
  /// Backpressure hint for kShed: how long until the queue has likely
  /// drained enough to admit again (EWMA batch time × queued batches,
  /// plus a fixed backoff floor).
  [[nodiscard]] std::chrono::nanoseconds retry_after_hint(
      std::size_t queue_depth) const;
  engine::SolveResult append_locked(Session& s, const engine::Delta& delta,
                                    bool journal_write = true);

  ServiceOptions opt_;
  const engine::ProblemRegistry& registry_;
  engine::BatchExecutor executor_;
  std::unique_ptr<ShardedLruCache<engine::SolveResult>> cache_;  // null = off

  mutable std::mutex mu_;  // guards queue_; stopping_ writes happen
                           // under it too (condvar coordination), but
                           // the atomic lets submit()'s fast path check
                           // it without taking the global lock
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::atomic<bool> stopping_{false};

  // submitted and cache-hit completions are atomics so the cache-hit
  // fast path takes no service-wide lock (its only contention is the
  // cache shard); the dispatcher-side counters stay behind stats_mu_.
  // stats() merges all three sources into one ServiceStats.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> hit_completed_{0};
  // Rejection counters are atomics: the shed/expired paths run on
  // client threads and the dispatcher both, and stats() must not make
  // the fast rejection path contend on stats_mu_.
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> rejected_failed_{0};  // futures failed via
                                                   // fail_pending
  std::atomic<std::uint64_t> journal_writes_{0};
  std::atomic<std::uint64_t> journal_errors_{0};
  // EWMA of one dispatched batch's solve wall time (ns); seeds the
  // retry-after hint and the "will miss its deadline anyway" early shed.
  std::atomic<std::uint64_t> ewma_batch_ns_{0};
  mutable std::mutex stats_mu_;  // guards stats_ (cache keeps its own)
  ServiceStats stats_;           // batch-side counters; submitted /
                                 // fast-path completed live above

  mutable std::mutex sessions_mu_;  // guards the id -> session map only;
                                    // per-session work holds Session::mu
  std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::atomic<std::uint64_t> next_session_id_{1};

  std::once_flag join_once_;  // exactly one shutdown() joins
  std::thread dispatcher_;    // started last, joined in shutdown()
};

}  // namespace cordon::service
