// cordon::core::fault — seeded fault injection for chaos testing.
//
// A FaultPlan names a seed and a per-site injection rate (parts per
// million); arming it makes the five injection points scattered through
// the engine start failing on a deterministic schedule:
//
//   kArenaAlloc  — Arena::allocate throws std::bad_alloc (only from a
//                  throw-safe frame, see core/cancel.hpp — an allocation
//                  inside a parallel body is never failed)
//   kDeltaApply  — apply_delta_inplace rejects the delta (base instance
//                  left untouched, the all-or-nothing contract holds)
//   kCacheEvict  — ShardedLruCache::put evicts one extra (unpinned)
//                  entry first, simulating memory pressure
//   kJournalIo   — the session journal's write path reports an I/O
//                  failure (the append fails typed, the session is
//                  poisoned, durability falls back to the last record)
//   kWorkerWake  — the scheduler sleeps a few hundred µs before a
//                  notify, widening every park/wake race window.  A wake
//                  is delayed, never dropped: the lost-wakeup liveness
//                  argument stays intact.
//
// Determinism: each thread draws from its own mt19937_64 seeded from
// plan.seed ^ (thread ordinal), reseeded whenever a new plan is armed,
// so a plan replays the same per-thread decision stream (modulo OS
// scheduling, which no in-process harness controls).
//
// Arming: programmatic (fault::arm(plan) / fault::disarm()) for tests,
// or the CORDON_FAULT environment variable for whole-binary chaos runs:
//   CORDON_FAULT="seed=42,arena_alloc=500,journal_io=2000" ./cordon_cli …
// Site keys: arena_alloc, delta_apply, cache_evict, journal_io,
// worker_wake; values are rates in parts per million.
//
// Build gating: compiled out exactly like audit.hpp — live in Debug and
// sanitizer builds, forced with -DCORDON_FAULT=ON, absent from Release
// (the injection-point macros expand to nothing, which is what the
// bench overhead gate measures).  The query API stays callable in all
// builds so tests can GTEST_SKIP when the layer is compiled out.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>

#include "src/core/cancel.hpp"

#if defined(CORDON_FAULT_DISABLED)
#define CORDON_FAULT_ENABLED 0
#elif defined(CORDON_FAULT_FORCE)
#define CORDON_FAULT_ENABLED 1
#elif !defined(NDEBUG)
#define CORDON_FAULT_ENABLED 1
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CORDON_FAULT_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define CORDON_FAULT_ENABLED 1
#else
#define CORDON_FAULT_ENABLED 0
#endif
#else
#define CORDON_FAULT_ENABLED 0
#endif

namespace cordon::core::fault {

inline constexpr bool kEnabled = CORDON_FAULT_ENABLED != 0;

enum class Site : std::uint8_t {
  kArenaAlloc = 0,
  kDeltaApply = 1,
  kCacheEvict = 2,
  kJournalIo = 3,
  kWorkerWake = 4,
};
inline constexpr std::size_t kNumSites = 5;

constexpr const char* site_name(Site s) noexcept {
  switch (s) {
    case Site::kArenaAlloc: return "arena_alloc";
    case Site::kDeltaApply: return "delta_apply";
    case Site::kCacheEvict: return "cache_evict";
    case Site::kJournalIo: return "journal_io";
    case Site::kWorkerWake: return "worker_wake";
  }
  return "unknown";
}

/// One chaos schedule: a seed plus per-site rates in parts per million
/// (0 = site disabled).  Immutable once armed.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::array<std::uint32_t, kNumSites> rate_ppm{};

  FaultPlan& with(Site s, std::uint32_t ppm) noexcept {
    rate_ppm[static_cast<std::size_t>(s)] = ppm;
    return *this;
  }
};

#if CORDON_FAULT_ENABLED

namespace detail {

/// The armed plan, published by pointer swap so readers never observe a
/// half-written plan.
inline std::atomic<const FaultPlan*>& active_plan() noexcept {
  static std::atomic<const FaultPlan*> p{nullptr};
  return p;
}

/// Copies `plan` into a node that lives, reachable, until the process
/// exits: a worker mid-draw when disarm() or a re-arm lands must not
/// read a destroyed plan, and no address is ever reused, so a plan's
/// pointer stays its identity (ThreadRng reseeds on a pointer change).
inline const FaultPlan* retain(const FaultPlan& plan) {
  struct Node {
    FaultPlan plan;
    Node* next;
  };
  static std::atomic<Node*> head{nullptr};
  auto* node = new Node{plan, nullptr};
  node->next = head.exchange(node);  // nothing walks the list
  return &node->plan;
}

inline std::array<std::atomic<std::uint64_t>, kNumSites>&
injected_counters() noexcept {
  static std::array<std::atomic<std::uint64_t>, kNumSites> n{};
  return n;
}

inline std::uint64_t thread_ordinal() noexcept {
  static std::atomic<std::uint64_t> next{0};
  thread_local std::uint64_t ord =
      next.fetch_add(1, std::memory_order_relaxed);
  return ord;
}

/// Per-thread engine, reseeded whenever the armed plan changes (plan
/// identity is the pointer value — arm() always retains a fresh node).
struct ThreadRng {
  const FaultPlan* plan = nullptr;
  std::mt19937_64 rng;
};

inline bool draw(const FaultPlan* plan, Site site) noexcept {
  std::uint32_t rate = plan->rate_ppm[static_cast<std::size_t>(site)];
  if (rate == 0) return false;
  thread_local ThreadRng t;
  if (t.plan != plan) {
    t.plan = plan;
    t.rng.seed(plan->seed ^ (0x9e3779b97f4a7c15ull * (thread_ordinal() + 1)));
  }
  return t.rng() % 1'000'000u < rate;
}

inline void parse_env_plan(FaultPlan& plan, const char* spec) noexcept {
  // "key=value,key=value"; unknown keys ignored, malformed values 0.
  const char* p = spec;
  while (*p != '\0') {
    const char* eq = std::strchr(p, '=');
    if (eq == nullptr) break;
    std::string key(p, static_cast<std::size_t>(eq - p));
    char* end = nullptr;
    unsigned long long val = std::strtoull(eq + 1, &end, 10);
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(val);
    } else {
      for (std::size_t s = 0; s < kNumSites; ++s) {
        if (key == site_name(static_cast<Site>(s)))
          plan.rate_ppm[s] = static_cast<std::uint32_t>(val);
      }
    }
    p = (end != nullptr && *end == ',') ? end + 1 : (end != nullptr ? end : p);
    if (p == eq + 1) break;  // no progress: bail on garbage
    while (*p == ',') ++p;
  }
}

inline void arm_from_env() noexcept {
  static bool once = [] {
    const char* spec = std::getenv("CORDON_FAULT");
    if (spec == nullptr || *spec == '\0') return true;
    FaultPlan plan;
    parse_env_plan(plan, spec);
    active_plan().store(retain(plan), std::memory_order_release);
    return true;
  }();
  (void)once;
}

}  // namespace detail

/// Arms `plan` for the whole process (replacing any armed plan) and
/// zeroes the injected counters.  Thread-safe against concurrent
/// should_inject callers; tests normally arm at a quiescent point.
inline void arm(const FaultPlan& plan) noexcept {
  for (auto& c : detail::injected_counters())
    c.store(0, std::memory_order_relaxed);
  detail::active_plan().store(detail::retain(plan), std::memory_order_release);
}

inline void disarm() noexcept {
  detail::active_plan().store(nullptr, std::memory_order_release);
}

[[nodiscard]] inline bool armed() noexcept {
  detail::arm_from_env();
  return detail::active_plan().load(std::memory_order_acquire) != nullptr;
}

/// Injections fired at `site` since the last arm().
[[nodiscard]] inline std::uint64_t injected(Site site) noexcept {
  return detail::injected_counters()[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

[[nodiscard]] inline std::uint64_t injected_total() noexcept {
  std::uint64_t total = 0;
  for (const auto& c : detail::injected_counters())
    total += c.load(std::memory_order_relaxed);
  return total;
}

/// One seeded draw at `site`.  Disarmed fast path: one relaxed load.
[[nodiscard]] inline bool should_inject(Site site) noexcept {
  detail::arm_from_env();
  const FaultPlan* plan =
      detail::active_plan().load(std::memory_order_acquire);
  if (plan == nullptr) [[likely]] return false;
  if (!detail::draw(plan, site)) return false;
  detail::injected_counters()[static_cast<std::size_t>(site)].fetch_add(
      1, std::memory_order_relaxed);
  return true;
}

/// A draw that is only allowed to succeed where throwing is safe (see
/// core::throw_safe) — used by sites that fail by exception.
[[nodiscard]] inline bool should_throw(Site site) noexcept {
  if (!throw_safe()) return false;
  return should_inject(site);
}

/// Timing perturbation for the scheduler's wake paths: sleeps 50–250 µs
/// when the draw fires.  Never suppresses the wake itself.
inline void maybe_delay(Site site) noexcept {
  if (!should_inject(site)) return;
  thread_local std::uint64_t salt = 0;
  std::this_thread::sleep_for(
      std::chrono::microseconds(50 + (salt++ * 67) % 200));
}

#else  // !CORDON_FAULT_ENABLED

inline void arm(const FaultPlan&) noexcept {}
inline void disarm() noexcept {}
[[nodiscard]] inline bool armed() noexcept { return false; }
[[nodiscard]] inline std::uint64_t injected(Site) noexcept { return 0; }
[[nodiscard]] inline std::uint64_t injected_total() noexcept { return 0; }
[[nodiscard]] inline bool should_inject(Site) noexcept { return false; }
[[nodiscard]] inline bool should_throw(Site) noexcept { return false; }
inline void maybe_delay(Site) noexcept {}

#endif

}  // namespace cordon::core::fault

// Injection-point macros: zero tokens in Release so hot paths carry no
// disarmed-check cost there (the ≤2% bench gate); a single relaxed load
// per site when compiled in but disarmed.
#if CORDON_FAULT_ENABLED
#define CORDON_FAULT_POINT(site, stmt)                         \
  do {                                                         \
    if (::cordon::core::fault::should_throw(site)) [[unlikely]] \
      stmt;                                                    \
  } while (0)
#define CORDON_FAULT_CHECK(site) ::cordon::core::fault::should_inject(site)
#define CORDON_FAULT_DELAY(site) ::cordon::core::fault::maybe_delay(site)
#else
#define CORDON_FAULT_POINT(site, stmt) \
  do {                                 \
  } while (0)
#define CORDON_FAULT_CHECK(site) false
#define CORDON_FAULT_DELAY(site) \
  do {                           \
  } while (0)
#endif
