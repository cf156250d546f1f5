#include "src/service/service.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <span>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "src/core/arena.hpp"
#include "src/core/trace.hpp"
#include "src/parallel/scheduler.hpp"

namespace {

inline std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

/// The retry-after hint's floor: a shed client backs off at least this
/// long, even before any batch has run to seed the EWMA.
constexpr std::chrono::microseconds kRetryAfterFloor{500};

}  // namespace

namespace cordon::service {

CordonService::CordonService(ServiceOptions opt,
                             const engine::ProblemRegistry& reg)
    : opt_(opt), registry_(reg), executor_(reg) {
  if (opt_.max_batch == 0) opt_.max_batch = 1;
  if (opt_.cache_capacity > 0)
    cache_ = std::make_unique<ShardedLruCache<engine::SolveResult>>(
        opt_.cache_capacity, opt_.cache_shards);
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

CordonService::~CordonService() { shutdown(); }

std::future<engine::SolveResult> CordonService::submit(engine::Instance inst,
                                                       SubmitOptions sopt) {
  // Reject up front — without taking the global lock, so the cache-hit
  // fast path never contends on mu_ — and again under mu_ before
  // enqueueing, so the post-shutdown contract holds on both paths and
  // does not depend on cache contents.  SolveError derives from
  // std::runtime_error, so the documented pre-taxonomy contract holds.
  if (stopping_.load(std::memory_order_acquire))
    throw core::SolveError(core::SolveErrorCode::kShutdown,
                           "CordonService: submit after shutdown");
  telemetry::TraceSpan submit_span("submit", "service");
  auto submit_t0 = std::chrono::steady_clock::now();
  auto record_submit = [&] {
    telemetry::count(telemetry::Counter::kServiceSubmits);
    telemetry::observe(
        telemetry::Histogram::kServiceSubmitNs,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - submit_t0)
                .count()));
  };
  // Hash-first probe on the byte key (engine::canonical_key): the key
  // is encoded into a thread-local buffer whose capacity is reused across
  // submits (zero allocation when warm).  A cold probe compares no bytes
  // at all, a hit compares them once, and only the miss path copies the
  // buffer into an owned key.
  thread_local engine::InstanceKey probe;
  engine::canonical_key_into(inst, probe);
  if (cache_ != nullptr) {
    if (auto hit = cache_->get(probe.hash, probe.text)) {
      // Fast path: completed future, no queue, no dispatcher wake-up,
      // no service-wide lock.  seq_cst increments in this order let
      // stats() (which reads hit_completed_ before submitted_) never
      // observe completed > submitted.
      submitted_.fetch_add(1);
      hit_completed_.fetch_add(1);
      record_submit();
      std::promise<engine::SolveResult> ready;
      ready.set_value(*std::move(hit));
      return ready.get_future();
    }
  }
  // Miss path: the dispatcher needs an owned key (in-batch coalescing,
  // cache insertion).
  engine::InstanceKey key = probe;
  // A timeout materializes as an absolute deadline on the request's
  // token (created on demand) so the dispatcher and the solver's
  // round-boundary polls see one coherent clock.
  if (sopt.timeout.count() > 0) {
    if (sopt.token == nullptr) sopt.token = std::make_shared<core::CancelToken>();
    sopt.token->set_timeout(sopt.timeout);
  }
  Pending pend{std::move(inst), std::move(key), {},
               std::chrono::steady_clock::now(), std::move(sopt.token)};
  std::future<engine::SolveResult> fut = pend.promise.get_future();
  std::optional<Pending> victim;  // kShedOldest: failed outside mu_
  {
    std::lock_guard lock(mu_);
    if (stopping_.load(std::memory_order_relaxed))
      throw core::SolveError(core::SolveErrorCode::kShutdown,
                             "CordonService: submit after shutdown");
    if (opt_.max_queue != 0 && queue_.size() >= opt_.max_queue) {
      if (opt_.overload_policy == OverloadPolicy::kRejectNew) {
        // Count the attempt, then fail THIS request's future with a
        // retry-after hint; the queue is untouched.
        submitted_.fetch_add(1);
        record_submit();
        fail_pending(pend, core::SolveErrorCode::kShed,
                     "admission queue full (" +
                         std::to_string(queue_.size()) + " waiting)",
                     retry_after_hint(queue_.size()));
        return fut;
      }
      // kShedOldest: evict the head (the request most likely to be
      // stale) to make room; its future fails after we drop the lock.
      victim.emplace(std::move(queue_.front()));
      queue_.pop_front();
    }
    queue_.push_back(std::move(pend));
    // Count only successfully admitted requests, while the dispatcher
    // cannot yet have taken this one: submitted >= completed + failed
    // holds at every instant.
    submitted_.fetch_add(1);
  }
  if (victim.has_value()) {
    fail_pending(*victim, core::SolveErrorCode::kShed,
                 "shed by a newer request under overload (shed-oldest)",
                 retry_after_hint(opt_.max_queue));
  } else {
    telemetry::gauge_add(telemetry::Gauge::kServiceQueueDepth, 1);
  }
  record_submit();
  cv_.notify_one();
  return fut;
}

std::chrono::nanoseconds CordonService::retry_after_hint(
    std::size_t queue_depth) const {
  // Batches ahead of a would-be admit × EWMA batch wall time, plus a
  // fixed floor.  Before any batch has run the EWMA is 0 and the hint
  // degrades to the floor alone.
  std::uint64_t ewma = ewma_batch_ns_.load(std::memory_order_relaxed);
  std::uint64_t batches_ahead =
      (queue_depth + opt_.max_batch - 1) / opt_.max_batch;
  return std::chrono::nanoseconds(ewma * batches_ahead) + kRetryAfterFloor;
}

void CordonService::fail_pending(Pending& p, core::SolveErrorCode code,
                                 const std::string& msg,
                                 std::chrono::nanoseconds retry_after) {
  p.done = true;
  switch (code) {
    case core::SolveErrorCode::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      telemetry::count(telemetry::Counter::kServiceShed);
      break;
    case core::SolveErrorCode::kDeadlineExceeded:
      expired_.fetch_add(1, std::memory_order_relaxed);
      telemetry::count(telemetry::Counter::kServiceExpired);
      break;
    case core::SolveErrorCode::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      telemetry::count(telemetry::Counter::kServiceCancelled);
      break;
    default:
      break;
  }
  telemetry::observe(
      telemetry::Histogram::kServiceRejectWaitNs,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - p.enqueued)
              .count()));
  rejected_failed_.fetch_add(1, std::memory_order_relaxed);
  p.promise.set_exception(
      std::make_exception_ptr(core::SolveError(code, msg, retry_after)));
}

namespace {

/// Cache key text for one session version.  The "cordon-session" prefix
/// is disjoint from every canonical instance header ("cordon-instance"),
/// so version entries can never collide with plain submit() keys; the
/// delta-chain hash makes two lineages that happen to share (base,
/// version) but applied different deltas distinct.
std::string session_version_key(std::uint64_t base_hash, std::uint64_t version,
                                std::uint64_t chain_hash) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "cordon-session %016llx v%llu chain %016llx\n",
                static_cast<unsigned long long>(base_hash),
                static_cast<unsigned long long>(version),
                static_cast<unsigned long long>(chain_hash));
  return buf;
}

}  // namespace

std::uint64_t CordonService::create_session(engine::Instance base) {
  if (stopping_.load(std::memory_order_acquire))
    throw std::runtime_error("CordonService: create_session after shutdown");
  const engine::Solver* solver = registry_.find(base.kind);
  if (solver == nullptr)
    throw std::invalid_argument("CordonService: unknown problem kind '" +
                                base.kind + "'");
  telemetry::TraceSpan span("create_session", "service");

  auto session = std::make_shared<Session>();
  session->solver = solver;
  // The journal stores the base's wire text, and the lineage hash is
  // seeded from it, so journals recover across changes to the cache key.
  const std::string base_text = engine::to_string(base);
  session->base_hash = engine::fnv1a64(base_text);
  session->chain_hash = session->base_hash;
  session->base_key = engine::canonical_key(base);

  // Base solve on the calling thread (adopting a pool slot so solver
  // forks are stealable), checkpointing resumable state when the family
  // has any.  Reference mode cross-checks with the oracle and never
  // checkpoints: every append will cold-solve with the oracle too.
  parallel::ExternalWorkerScope adopt;
  engine::SolveResult result;
  if (opt_.use_reference) {
    result = solver->solve_reference(base);
  } else {
    result = solver->solve_checkpoint(base, session->state);
  }
  const std::uint64_t id = next_session_id_.fetch_add(1);
  if (!opt_.journal_dir.empty()) {
    // Durability before registration: either the base record is on disk
    // or create_session throws (SolveError{kInternal}) with no session,
    // no pinned cache entry, and no journal file left behind.
    try {
      session->journal =
          SessionJournal::create(opt_.journal_dir, id, base.kind, base_text);
      journal_writes_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      journal_errors_.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
  }
  if (cache_ != nullptr)
    cache_->put_pinned(session->base_key.hash, session->base_key.text, result);
  session->current = std::move(base);

  {
    std::lock_guard lock(sessions_mu_);
    sessions_.emplace(id, std::move(session));
  }
  telemetry::gauge_add(telemetry::Gauge::kServiceOpenSessions, 1);
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.sessions_created;
  }
  return id;
}

std::future<engine::SolveResult> CordonService::append(std::uint64_t id,
                                                      engine::Delta delta) {
  std::promise<engine::SolveResult> promise;
  std::future<engine::SolveResult> fut = promise.get_future();
  try {
    if (stopping_.load(std::memory_order_acquire))
      throw core::SolveError(core::SolveErrorCode::kShutdown,
                             "CordonService: append after shutdown");
    std::shared_ptr<Session> session;
    {
      std::lock_guard lock(sessions_mu_);
      auto it = sessions_.find(id);
      if (it != sessions_.end()) session = it->second;
    }
    if (session == nullptr)
      throw core::SolveError(core::SolveErrorCode::kInvalidArgument,
                             "CordonService: no such session " +
                                 std::to_string(id));
    telemetry::TraceSpan span("append", "service");
    std::lock_guard lock(session->mu);
    promise.set_value(append_locked(*session, delta));
  } catch (const core::SolveError&) {
    promise.set_exception(std::current_exception());
  } catch (const std::invalid_argument& e) {
    // Hostile delta: wrong kind, over-cap ops, base-version mismatch.
    promise.set_exception(std::make_exception_ptr(core::SolveError(
        core::SolveErrorCode::kInvalidArgument, e.what())));
  } catch (const std::bad_alloc&) {
    promise.set_exception(std::make_exception_ptr(core::SolveError(
        core::SolveErrorCode::kInternal, "allocation failed")));
  } catch (const std::exception& e) {
    promise.set_exception(std::make_exception_ptr(
        core::SolveError(core::SolveErrorCode::kInternal, e.what())));
  }
  return fut;
}

engine::SolveResult CordonService::append_locked(Session& s,
                                                 const engine::Delta& delta,
                                                 bool journal_write) {
  if (s.poisoned)
    throw core::SolveError(
        core::SolveErrorCode::kInternal,
        "session poisoned by an earlier journal failure; re-create it (or "
        "recover()) to resume from the last durable version");
  if (delta.base_version != s.version)
    throw std::invalid_argument(
        "CordonService: delta base version " +
        std::to_string(delta.base_version) + " does not match session version " +
        std::to_string(s.version));
  // Validates caps and applies all-or-nothing: a hostile delta leaves
  // the session's current instance (and version) untouched.
  engine::apply_delta_inplace(s.current, delta);
  // Version linearity: whatever path serves this append below — resume,
  // cold fallback, version-cache hit, or a solver throw unwinding — the
  // lineage must leave exactly one version ahead of where it was.
  [[maybe_unused]] const std::uint64_t version_before = s.version;
  CORDON_AUDIT_SCOPE(CORDON_DCHECK(s.version == version_before + 1,
                                   "session version linearity broken"));
  ++s.version;
  // Lineage hash: fold each applied delta's text into the running hash.
  // Not a canonical form (order matters — deliberately: lineages are
  // linear), just a collision-resistant cache discriminator.
  const std::string delta_text = engine::to_string(delta);
  s.chain_hash = (s.chain_hash * 1099511628211ull) ^
                 engine::fnv1a64(delta_text);
  telemetry::count(telemetry::Counter::kSessionAppends);
  // Durability: the record is flushed under the session mutex before
  // the append's future can resolve.  On a write failure the in-memory
  // lineage is already one step ahead of disk, so the session is
  // poisoned — later appends fail fast instead of widening the gap —
  // and recover() resumes from the last durable version.  (Replay
  // passes journal_write = false: the records already exist.)
  if (journal_write && s.journal != nullptr) {
    try {
      s.journal->append_delta(delta_text, s.version, s.chain_hash);
      journal_writes_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      s.poisoned = true;
      journal_errors_.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
  }

  const std::string vkey = session_version_key(s.base_hash, s.version,
                                               s.chain_hash);
  const std::uint64_t vhash = engine::fnv1a64(vkey);

  // Solver forks must be stealable whether this lands on the resume
  // path (cheap, sequential) or the cold-fallback parallel solve.
  parallel::ExternalWorkerScope adopt;
  engine::SolveResult result;
  bool resumed = false;
  if (opt_.use_reference) {
    result = s.solver->solve_reference(s.current);
    s.state = nullptr;
  } else if (!s.solver->incremental() && cache_ != nullptr) {
    // Non-incremental family: a replayed lineage can serve this version
    // straight from the cache (there is no state to advance).
    if (auto hit = cache_->get(vhash, vkey)) {
      std::lock_guard lock(stats_mu_);
      ++stats_.session_appends;
      return *std::move(hit);
    }
    engine::ResumeResult rr = s.solver->resume(s.state, s.current, delta);
    result = std::move(rr.result);
  } else {
    // Incremental family (or cache off): always run resume — advancing
    // the checkpoint is the cheap path, and a cache hit could not hand
    // back the state the NEXT append needs.
    engine::ResumeResult rr = s.solver->resume(s.state, s.current, delta);
    s.state = std::move(rr.state);
    resumed = rr.resumed;
    result = std::move(rr.result);
  }
  telemetry::count(resumed ? telemetry::Counter::kSessionResumes
                           : telemetry::Counter::kSessionColdSolves);
  ++(resumed ? s.resumes : s.cold_solves);
  if (cache_ != nullptr) cache_->put(vhash, vkey, result);
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.session_appends;
    ++(resumed ? stats_.session_resumes : stats_.session_cold_solves);
  }
  return result;
}

void CordonService::close_session(std::uint64_t id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard lock(sessions_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // Wait out any in-flight append so the unpin below cannot race a
  // resume still reading the session.
  {
    std::lock_guard lock(session->mu);
    // A cleanly closed session needs no recovery: drop its journal so
    // recover() cannot resurrect a lineage the caller ended on purpose.
    if (session->journal != nullptr) {
      session->journal->remove();
      session->journal.reset();
    }
  }
  if (cache_ != nullptr)
    cache_->unpin(session->base_key.hash, session->base_key.text);
  telemetry::gauge_add(telemetry::Gauge::kServiceOpenSessions, -1);
  std::lock_guard lock(stats_mu_);
  ++stats_.sessions_closed;
}

std::optional<SessionInfo> CordonService::session_info(
    std::uint64_t id) const {
  std::shared_ptr<Session> session;
  {
    std::lock_guard lock(sessions_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return std::nullopt;
    session = it->second;
  }
  std::lock_guard lock(session->mu);
  SessionInfo info;
  info.id = id;
  info.kind = session->current.kind;
  info.version = session->version;
  info.base_hash = session->base_hash;
  info.incremental = session->solver->incremental();
  info.resumes = session->resumes;
  info.cold_solves = session->cold_solves;
  info.poisoned = session->poisoned;
  info.durable = session->journal != nullptr;
  return info;
}

std::vector<std::uint64_t> CordonService::recover() {
  if (opt_.journal_dir.empty())
    throw std::logic_error(
        "CordonService::recover requires ServiceOptions::journal_dir");
  std::vector<std::uint64_t> recovered;
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(opt_.journal_dir)) {
    if (entry.path().extension() == ".jnl") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());  // deterministic replay order
  for (const auto& file : files) {
    std::string error;
    auto replay = SessionJournal::load(file.string(), &error);
    if (!replay.has_value()) {
      // Unusable base: skip, leave the file for inspection.
      std::fprintf(stderr, "cordon recover: skipping %s: %s\n",
                   file.string().c_str(), error.c_str());
      continue;
    }
    // Re-create the lineage through the NORMAL solve/append paths (the
    // solvers are deterministic, so the recovered results are
    // bit-identical to the uninterrupted run's); the journal itself is
    // not re-written — the records already exist.
    engine::Instance base;
    try {
      base = engine::from_string(replay->base_text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cordon recover: skipping %s: bad base: %s\n",
                   file.string().c_str(), e.what());
      continue;
    }
    const engine::Solver* solver = registry_.find(base.kind);
    if (solver == nullptr) {
      std::fprintf(stderr, "cordon recover: skipping %s: unknown kind\n",
                   file.string().c_str());
      continue;
    }
    auto session = std::make_shared<Session>();
    session->solver = solver;
    session->base_hash = engine::fnv1a64(replay->base_text);
    session->chain_hash = session->base_hash;
    session->base_key = engine::canonical_key(base);
    parallel::ExternalWorkerScope adopt;
    engine::SolveResult base_result;
    if (opt_.use_reference) {
      base_result = solver->solve_reference(base);
    } else {
      base_result = solver->solve_checkpoint(base, session->state);
    }
    if (cache_ != nullptr)
      cache_->put_pinned(session->base_key.hash, session->base_key.text,
                         base_result);
    session->current = std::move(base);
    bool ok = true;
    for (const SessionJournal::ReplayDelta& rd : replay->deltas) {
      engine::Delta delta;
      try {
        delta = engine::delta_from_string(rd.text);
        (void)append_locked(*session, delta, /*journal_write=*/false);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cordon recover: %s: replay stopped at v%llu: %s\n",
                     file.string().c_str(),
                     static_cast<unsigned long long>(rd.version), e.what());
        ok = false;
        break;
      }
      if (session->version != rd.version ||
          session->chain_hash != rd.chain_hash) {
        std::fprintf(stderr,
                     "cordon recover: %s: lineage hash mismatch at v%llu\n",
                     file.string().c_str(),
                     static_cast<unsigned long long>(rd.version));
        ok = false;
        break;
      }
    }
    if (!ok) {
      // Keep what replayed cleanly but freeze the lineage: the journal
      // holds records the in-memory session does not, so appending
      // would fork history.
      session->poisoned = true;
    }
    if (replay->truncated_tail && ok) {
      // Drop the damaged half-record so the re-bound journal appends
      // after the last whole one.
      if (!SessionJournal::truncate_file(file.string(),
                                         replay->valid_bytes)) {
        std::fprintf(stderr, "cordon recover: %s: cannot drop damaged tail\n",
                     file.string().c_str());
        session->poisoned = true;
      }
    }
    if (!session->poisoned)
      session->journal = SessionJournal::open_existing(file.string());
    // Same id as the original process: journals are the id authority.
    const std::uint64_t id = replay->id;
    // Keep fresh ids above every recovered one.
    std::uint64_t next = next_session_id_.load();
    while (next <= id && !next_session_id_.compare_exchange_weak(next, id + 1)) {
    }
    {
      std::lock_guard lock(sessions_mu_);
      sessions_.emplace(id, std::move(session));
    }
    telemetry::gauge_add(telemetry::Gauge::kServiceOpenSessions, 1);
    telemetry::count(telemetry::Counter::kSessionsRecovered);
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.sessions_created;
      ++stats_.sessions_recovered;
    }
    recovered.push_back(id);
  }
  return recovered;
}

void CordonService::shutdown() {
  {
    std::lock_guard lock(mu_);
    stopping_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  // One thread joins; concurrent callers block here until it is done.
  std::call_once(join_once_, [this] {
    if (dispatcher_.joinable()) dispatcher_.join();
  });
}

ServiceStats CordonService::stats() const {
  ServiceStats out;
  {
    std::lock_guard lock(stats_mu_);
    out = stats_;
  }
  // hit_completed_ before submitted_ (see submit's fast path): a hit's
  // submit increment is always visible by the time its completion is.
  out.completed += hit_completed_.load();
  out.failed += rejected_failed_.load();  // typed rejections count as failed
  out.submitted = submitted_.load();
  out.shed = shed_.load();
  out.expired = expired_.load();
  out.cancelled = cancelled_.load();
  out.journal_writes = journal_writes_.load();
  out.journal_errors = journal_errors_.load();
  if (cache_ != nullptr) out.cache = cache_->stats();
  return out;
}

std::size_t CordonService::cache_size() const {
  return cache_ == nullptr ? 0 : cache_->size();
}

namespace {

// Renders a StatField array under a metric-name prefix.  The field list
// is the same one the human-readable stream operators iterate
// (core::StatField::to_json_fields), so the two surfaces cannot drift:
// monotonic fields become `<prefix><name>_total` counters, the rest
// plain gauges (e.g. cordon_service_cache_hit_rate).
template <std::size_t N>
void write_stat_fields(std::ostream& os, const char* prefix,
                       const std::array<core::StatField, N>& fields) {
  for (const core::StatField& f : fields) {
    os << prefix << f.name << (f.monotonic ? "_total" : "") << ' ';
    if (f.integral) {
      os << static_cast<std::uint64_t>(f.value);
    } else {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.10g", f.value);
      os << buf;
    }
    os << '\n';
  }
}

}  // namespace

std::string CordonService::metrics_text() const {
  std::ostringstream os;
  telemetry::write_prometheus(os, telemetry::snapshot());

  ServiceStats s = stats();
  os << "# HELP cordon_service_submitted_total Requests admitted by submit()\n"
        "# TYPE cordon_service_submitted_total counter\n"
     << "cordon_service_submitted_total " << s.submitted << '\n'
     << "# HELP cordon_service_completed_total Futures fulfilled with a "
        "result\n# TYPE cordon_service_completed_total counter\n"
     << "cordon_service_completed_total " << s.completed << '\n'
     << "# HELP cordon_service_failed_total Futures fulfilled with an "
        "exception\n# TYPE cordon_service_failed_total counter\n"
     << "cordon_service_failed_total " << s.failed << '\n'
     << "# HELP cordon_service_largest_batch Most requests in one dispatch\n"
        "# TYPE cordon_service_largest_batch gauge\n"
     << "cordon_service_largest_batch " << s.largest_batch << '\n'
     << "# HELP cordon_service_cache_entries Result-cache entries resident\n"
        "# TYPE cordon_service_cache_entries gauge\n"
     << "cordon_service_cache_entries " << cache_size() << '\n'
     << "# HELP cordon_service_cache_pinned Cache entries pinned by open "
        "sessions\n# TYPE cordon_service_cache_pinned gauge\n"
     << "cordon_service_cache_pinned "
     << (cache_ == nullptr ? 0 : cache_->pinned()) << '\n'
     << "# HELP cordon_service_sessions_created_total Sessions created\n"
        "# TYPE cordon_service_sessions_created_total counter\n"
     << "cordon_service_sessions_created_total " << s.sessions_created << '\n'
     << "# HELP cordon_service_sessions_closed_total Sessions closed\n"
        "# TYPE cordon_service_sessions_closed_total counter\n"
     << "cordon_service_sessions_closed_total " << s.sessions_closed << '\n'
     << "# HELP cordon_service_session_appends_total Session appends "
        "fulfilled\n# TYPE cordon_service_session_appends_total counter\n"
     << "cordon_service_session_appends_total " << s.session_appends << '\n'
     << "# HELP cordon_service_session_resumes_total Appends served from "
        "saved solver state\n"
        "# TYPE cordon_service_session_resumes_total counter\n"
     << "cordon_service_session_resumes_total " << s.session_resumes << '\n'
     << "# HELP cordon_service_session_cold_solves_total Appends served by "
        "a cold solve\n"
        "# TYPE cordon_service_session_cold_solves_total counter\n"
     << "cordon_service_session_cold_solves_total " << s.session_cold_solves
     << '\n'
     << "# HELP cordon_service_shed_requests_total Requests rejected by "
        "admission control\n"
        "# TYPE cordon_service_shed_requests_total counter\n"
     << "cordon_service_shed_requests_total " << s.shed << '\n'
     << "# HELP cordon_service_expired_requests_total Requests that blew "
        "(or provably would blow) their deadline\n"
        "# TYPE cordon_service_expired_requests_total counter\n"
     << "cordon_service_expired_requests_total " << s.expired << '\n'
     << "# HELP cordon_service_cancelled_requests_total Requests failed "
        "through their cancel token\n"
        "# TYPE cordon_service_cancelled_requests_total counter\n"
     << "cordon_service_cancelled_requests_total " << s.cancelled << '\n'
     << "# HELP cordon_service_journal_writes_total Durable session-journal "
        "records written\n"
        "# TYPE cordon_service_journal_writes_total counter\n"
     << "cordon_service_journal_writes_total " << s.journal_writes << '\n'
     << "# HELP cordon_service_journal_errors_total Session-journal write "
        "failures (poisons the session)\n"
        "# TYPE cordon_service_journal_errors_total counter\n"
     << "cordon_service_journal_errors_total " << s.journal_errors << '\n'
     << "# HELP cordon_service_sessions_recovered_total Sessions rebuilt "
        "from journals by recover()\n"
        "# TYPE cordon_service_sessions_recovered_total counter\n"
     << "cordon_service_sessions_recovered_total " << s.sessions_recovered
     << '\n';
  write_stat_fields(os, "cordon_service_cache_", s.cache.to_json_fields());
  write_stat_fields(os, "cordon_service_queue_", s.queue.to_json_fields());
  return os.str();
}

void CordonService::dispatch_loop() {
  // Adopt an external worker slot for the thread's lifetime so the
  // executor's forks below go onto the shared pool instead of running
  // inline on this thread.
  parallel::ExternalWorkerScope adopt;

  std::unique_lock lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping and fully drained

    // Dispatch on arrival: take what is queued now, up to max_batch.
    // Requests that arrived while the previous batch ran ride this one.
    std::size_t take = std::min(queue_.size(), opt_.max_batch);
    telemetry::gauge_add(telemetry::Gauge::kServiceQueueDepth,
                         -static_cast<std::int64_t>(take));
    std::vector<Pending> taken;
    taken.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      taken.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    lock.unlock();
    run_batch(std::move(taken));
    lock.lock();
  }
}

void CordonService::run_batch(std::vector<Pending> taken) {
  try {
    run_batch_impl(taken);
    return;
  } catch (...) {
    // The dispatcher outlives any single batch: an allocation failure
    // (genuine or injected at fault::Site::kArenaAlloc during assembly)
    // fails this batch's unfulfilled futures typed, and the loop goes on
    // serving.  Nothing here re-throws.
    std::exception_ptr typed;
    try {
      throw;
    } catch (const core::SolveError&) {
      typed = std::current_exception();
    } catch (const std::bad_alloc&) {
      typed = std::make_exception_ptr(core::SolveError(
          core::SolveErrorCode::kInternal, "batch dispatch: allocation failed"));
    } catch (const std::exception& e) {
      typed = std::make_exception_ptr(core::SolveError(
          core::SolveErrorCode::kInternal,
          std::string("batch dispatch failed: ") + e.what()));
    } catch (...) {  // lint: allow-catch (converted to SolveError above)
      typed = std::make_exception_ptr(core::SolveError(
          core::SolveErrorCode::kInternal, "batch dispatch failed"));
    }
    std::uint64_t failed = 0;
    for (Pending& p : taken) {
      if (p.done) continue;
      p.done = true;
      ++failed;
      p.promise.set_exception(typed);
    }
    telemetry::count(telemetry::Counter::kEngineSolveErrors, failed);
    std::lock_guard lock(stats_mu_);
    stats_.failed += failed;
  }
}

void CordonService::run_batch_impl(std::vector<Pending>& taken) {
  auto dispatched_at = std::chrono::steady_clock::now();
  telemetry::count(telemetry::Counter::kServiceBatches);
  telemetry::TraceSpan batch_span("batch", "service");
  batch_span.arg("requests", taken.size());
  for (const Pending& p : taken)
    telemetry::observe(
        telemetry::Histogram::kServiceQueueWaitNs,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                dispatched_at - p.enqueued)
                .count()));

  // Pre-dispatch triage: fail requests that were cancelled while they
  // queued, whose deadline already passed, or whose remaining budget is
  // under a quarter of the typical batch solve time (EWMA) — solving
  // those would burn a pool slot to produce a result nobody can use.
  {
    const std::uint64_t now_ns = steady_now_ns();
    const std::uint64_t ewma = ewma_batch_ns_.load(std::memory_order_relaxed);
    for (Pending& p : taken) {
      if (p.token == nullptr) continue;
      if (p.token->cancelled()) {
        fail_pending(p, core::SolveErrorCode::kCancelled,
                     "cancelled while queued");
        continue;
      }
      const std::uint64_t dl = p.token->deadline_ns();
      if (dl == 0) continue;
      if (dl <= now_ns) {
        fail_pending(p, core::SolveErrorCode::kDeadlineExceeded,
                     "deadline expired while queued");
      } else if (ewma != 0 && dl - now_ns < ewma / 4) {
        fail_pending(p, core::SolveErrorCode::kDeadlineExceeded,
                     "deadline unmeetable: less than a quarter of the "
                     "typical batch solve time remains");
      }
    }
  }

  // Batch assembly runs inside one arena epoch of the dispatcher's
  // worker arena (the dispatcher holds an adopted slot for its
  // lifetime): every transient array below — groups, probe outcomes,
  // the instance batch itself — bumps the same retained chunks each
  // dispatch instead of round-tripping the global allocator.  The
  // vectors must not outlive `assembly` (they don't: promises are
  // fulfilled before this function returns).
  core::Arena& arena = core::worker_arena();
  core::ArenaScope assembly(arena);

  // Coalesce: identical keys collapse onto the first occurrence (the
  // "leader"); one solve serves every duplicate.  Requests are matched
  // on the key hash they already carry, then on the key bytes; the rare
  // request whose hash matches a different key solves on its own.
  struct Group {
    std::size_t leader;
    std::vector<std::size_t> members;
  };
  core::ArenaVector<Group> groups{core::ArenaAllocator<Group>(arena)};
  {
    std::unordered_map<std::uint64_t, std::size_t> by_hash;  // -> group
    for (std::size_t i = 0; i < taken.size(); ++i) {
      if (taken[i].done) continue;  // already failed in triage
      if (taken[i].token != nullptr) {
        // Cancellable requests get a singleton group: coalescing one
        // under another member's token would let THAT client's cancel
        // (or deadline) fail a future it does not own.
        groups.push_back(Group{i, {i}});
        continue;
      }
      const engine::InstanceKey& key = taken[i].key;
      auto [it, fresh] = by_hash.try_emplace(key.hash, groups.size());
      if (!fresh && taken[groups[it->second].leader].key.text == key.text)
        groups[it->second].members.push_back(i);
      else
        groups.push_back(Group{i, {i}});
    }
  }

  // A prior batch may have cached a key after these requests were
  // admitted: re-probe before solving.  With one serial dispatcher, this
  // is what holds a duplicate that queued behind its twin's batch to one
  // solve.  (So a queued request probes the cache twice — once in
  // submit, once here; CacheStats counts probes.)
  struct Outcome {
    const Group* group;
    engine::SolveResult result;      // when ok
    std::exception_ptr error;        // when !ok
    core::SolveErrorCode code;       // meaningful when error != nullptr
  };
  core::ArenaVector<Outcome> outcomes{core::ArenaAllocator<Outcome>(arena)};
  core::ArenaVector<const Group*> to_solve{
      core::ArenaAllocator<const Group*>(arena)};
  core::ArenaVector<engine::Instance> batch{
      core::ArenaAllocator<engine::Instance>(arena)};
  // Aligned with `batch`: the executor installs each leader's token for
  // the solver's round-boundary polls.
  core::ArenaVector<core::CancelToken*> tokens{
      core::ArenaAllocator<core::CancelToken*>(arena)};
  std::size_t live = 0;  // requests surviving triage
  for (const Group& g : groups) {
    live += g.members.size();
    const engine::InstanceKey& key = taken[g.leader].key;
    if (cache_ != nullptr) {
      if (auto hit = cache_->get(key.hash, key.text)) {
        outcomes.push_back(
            {&g, *std::move(hit), nullptr, core::SolveErrorCode::kInternal});
        continue;
      }
    }
    to_solve.push_back(&g);
    tokens.push_back(taken[g.leader].token.get());
    // The leader's instance is not read again (key/text live separately
    // in Pending::key), so hand it to the executor without copying.
    batch.push_back(std::move(taken[g.leader].inst));
  }

  telemetry::count(telemetry::Counter::kServiceCoalesced,
                   live - groups.size());
  batch_span.arg("groups", groups.size());

  engine::BatchReport report;
  if (!batch.empty()) {
    auto solve_t0 = std::chrono::steady_clock::now();
    report = executor_.run(
        batch, {.parallel = true,
                .use_reference = opt_.use_reference,
                .tokens = std::span<core::CancelToken* const>(tokens.data(),
                                                              tokens.size())});
    const auto solve_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - solve_t0)
            .count());
    telemetry::observe(telemetry::Histogram::kServiceBatchSolveNs, solve_ns);
    // EWMA of batch wall time, feeding the retry-after hint and the
    // early-shed test.  Single writer (the dispatcher), so a relaxed
    // load/store pair is a plain read-modify-write.
    const std::uint64_t old = ewma_batch_ns_.load(std::memory_order_relaxed);
    ewma_batch_ns_.store(old == 0 ? solve_ns : (3 * old + solve_ns) / 4,
                         std::memory_order_relaxed);
  }

  std::uint64_t completed = 0, failed = 0;
  for (std::size_t i = 0; i < to_solve.size(); ++i) {
    const Group& g = *to_solve[i];
    const engine::BatchItem& item = report.items[i];
    if (item.ok) {
      if (cache_ != nullptr) {
        engine::InstanceKey& key = taken[g.leader].key;
        cache_->put(key.hash, std::move(key.text), item.result);
      }
      outcomes.push_back(
          {&g, item.result, nullptr, core::SolveErrorCode::kInternal});
    } else {
      outcomes.push_back({&g, {},
                          std::make_exception_ptr(core::SolveError(
                              item.code, item.kind + ": " + item.error)),
                          item.code});
    }
  }
  for (const Outcome& o : outcomes) {
    std::uint64_t n = o.group->members.size();
    if (o.error == nullptr) {
      completed += n;
      continue;
    }
    failed += n;
    // Mid-solve aborts land here (queue-time ones went through
    // fail_pending): keep the per-category counters whole either way.
    if (o.code == core::SolveErrorCode::kCancelled) {
      cancelled_.fetch_add(n, std::memory_order_relaxed);
      telemetry::count(telemetry::Counter::kServiceCancelled, n);
    } else if (o.code == core::SolveErrorCode::kDeadlineExceeded) {
      expired_.fetch_add(n, std::memory_order_relaxed);
      telemetry::count(telemetry::Counter::kServiceExpired, n);
    }
  }

  // Counters first, futures second: a client that wakes from get() must
  // observe stats that already include its own request.
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.batches;
    stats_.largest_batch = std::max(stats_.largest_batch, taken.size());
    stats_.coalesced += live - groups.size();
    stats_.completed += completed;
    stats_.failed += failed;
    stats_.solver += report.stats;
    for (const Pending& p : taken)
      stats_.queue.add(
          std::chrono::duration<double>(dispatched_at - p.enqueued).count());
  }

  for (const Outcome& o : outcomes) {
    for (std::size_t m : o.group->members) {
      taken[m].done = true;
      if (o.error == nullptr)
        taken[m].promise.set_value(o.result);
      else
        taken[m].promise.set_exception(o.error);
    }
  }
}

}  // namespace cordon::service
