// cordon::core::audit — the compiled-in invariant layer.
//
// CORDON_DCHECK guards the load-bearing invariants of the hand-rolled
// concurrent and geometric structures (deque top/bottom ordering,
// eventcount epoch monotonicity, arena epoch LIFO balance, envelope
// convexity, threshold-frontier sortedness, session version linearity,
// cache pin refcounts).  The checks are active exactly where they pay
// for themselves — Debug builds and every sanitizer build, where a
// violation aborts loudly at the first broken invariant instead of
// surfacing as a downstream wrong answer — and compile to a true no-op
// in Release, the same contract as -DCORDON_TELEMETRY=OFF: the
// condition expression is still type-checked (unevaluated sizeof), so
// an invariant cannot rot behind the build flag, but no code is
// generated, which is what the native-bench overhead gate measures.
//
// Enablement, first match wins:
//   * CORDON_AUDIT_FORCE (CMake defines it when CORDON_SANITIZE is set)
//                                                 -> on, any build type
//   * Debug builds (no NDEBUG)                    -> on
//   * ASan/TSan/UBSan compiled in                 -> on
//   * otherwise (Release/RelWithDebInfo)          -> off
//
// CORDON_AUDIT_SCOPE(...) registers statements to run at scope exit in
// audit builds (re-verifying an invariant after a mutation spree, e.g.
// lineage version linearity at the end of a session append); it expands
// to nothing when audits are off.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#if defined(CORDON_AUDIT_FORCE)
#define CORDON_AUDIT_ENABLED 1
#elif !defined(NDEBUG)
#define CORDON_AUDIT_ENABLED 1
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CORDON_AUDIT_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define CORDON_AUDIT_ENABLED 1
#else
#define CORDON_AUDIT_ENABLED 0
#endif
#else
#define CORDON_AUDIT_ENABLED 0
#endif

namespace cordon::core::audit {

inline constexpr bool kEnabled = CORDON_AUDIT_ENABLED != 0;

#if CORDON_AUDIT_ENABLED

/// Checks evaluated since process start (all threads).  Lets tests
/// assert the layer is actually live in audit builds — a refactor that
/// silently compiles the checks out would read back zero.
inline std::atomic<std::uint64_t>& check_counter() noexcept {
  static std::atomic<std::uint64_t> n{0};
  return n;
}

inline std::uint64_t checks_run() noexcept {
  return check_counter().load(std::memory_order_relaxed);
}

inline void note_check() noexcept {
  check_counter().fetch_add(1, std::memory_order_relaxed);
}

/// Prints the broken invariant and aborts.  abort() (not throw): an
/// invariant failure means process state is already corrupt, and abort
/// is what sanitizer runners and libFuzzer turn into a reported crash
/// with a stack.
[[noreturn]] inline void fail(const char* expr, const char* file, int line,
                              const char* msg) {
  std::fprintf(stderr, "CORDON_DCHECK failed: %s\n  at %s:%d%s%s\n", expr,
               file, line, msg[0] != '\0' ? "\n  " : "", msg);
  std::fflush(stderr);
  std::abort();
}

/// Runs the registered statements at scope exit (CORDON_AUDIT_SCOPE).
template <typename F>
class ScopeCheck {
 public:
  explicit ScopeCheck(F f) noexcept : f_(std::move(f)) {}
  ~ScopeCheck() { f_(); }
  ScopeCheck(const ScopeCheck&) = delete;
  ScopeCheck& operator=(const ScopeCheck&) = delete;

 private:
  F f_;
};

#else  // !CORDON_AUDIT_ENABLED

inline std::uint64_t checks_run() noexcept { return 0; }

#endif

}  // namespace cordon::core::audit

#if CORDON_AUDIT_ENABLED

// Optional second argument: a string literal naming the invariant, e.g.
//   CORDON_DCHECK(t <= b, "deque top ran past bottom");
#define CORDON_DCHECK(cond, ...)                                        \
  do {                                                                  \
    ::cordon::core::audit::note_check();                                \
    if (!(cond)) [[unlikely]]                                           \
      ::cordon::core::audit::fail(#cond, __FILE__, __LINE__,            \
                                  "" __VA_ARGS__);                      \
  } while (0)

#define CORDON_AUDIT_DETAIL_CONCAT2(a, b) a##b
#define CORDON_AUDIT_DETAIL_CONCAT(a, b) CORDON_AUDIT_DETAIL_CONCAT2(a, b)

// Statements run at scope exit, e.g.
//   CORDON_AUDIT_SCOPE(CORDON_DCHECK(s.version == before + 1));
#define CORDON_AUDIT_SCOPE(...)                                         \
  ::cordon::core::audit::ScopeCheck CORDON_AUDIT_DETAIL_CONCAT(         \
      cordon_audit_scope_, __LINE__)([&]() { __VA_ARGS__; })

#else  // !CORDON_AUDIT_ENABLED

// Unevaluated sizeof keeps the condition type-checked at zero cost; the
// conditional operator forces a contextual bool conversion, so exactly
// the expressions the live macro accepts compile here too.
#define CORDON_DCHECK(cond, ...) \
  static_cast<void>(sizeof((cond) ? 1 : 0))

#define CORDON_AUDIT_SCOPE(...) \
  do {                          \
  } while (0)

#endif
