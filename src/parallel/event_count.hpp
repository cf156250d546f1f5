// EventCount: the park/wake primitive underneath the scheduler.
//
// An eventcount lets a thread block on an arbitrary predicate ("some
// deque is non-empty", "this job's done flag is set") without a lock
// around the predicate and without a lost-wakeup window.  The waiter
// side is a three-step dance:
//
//   std::uint64_t key = ec.prepare_wait();   // announce intent to sleep
//   if (predicate())  ec.cancel_wait();      // re-check: work appeared
//   else              ec.commit_wait(key);   // sleep until notified
//
// and the producer side publishes its work *before* calling
// notify_one()/notify_all().  Correctness is the classic store-buffer
// (Dekker) argument: the waiter increments the waiter count with
// seq_cst and only then re-checks the predicate; the producer publishes
// work and only then (behind a seq_cst fence) reads the waiter count.
// In the total order of seq_cst operations one of the two must see the
// other's write, so either the waiter's re-check observes the new work
// (and it cancels), or the producer observes waiters > 0 (and it bumps
// the epoch under the mutex, which commit_wait cannot miss: a waiter
// whose key is stale returns immediately, and a waiter already inside
// the condvar is woken by it).
//
// notify_one()/notify_all() are cheap when nobody is parked — one
// seq_cst fence plus one load — which is what makes it affordable to
// call them on the fork hot path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "src/core/audit.hpp"

namespace cordon::parallel {

class EventCount {
 public:
  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  /// Step 1 of waiting: registers the caller as a waiter and snapshots
  /// the epoch.  After this call the caller MUST re-check its predicate
  /// and then call exactly one of cancel_wait() / commit_wait(key).
  [[nodiscard]] std::uint64_t prepare_wait() noexcept {
    // order: seq_cst — the waiter half of Dekker; must totally order
    // against notify()'s fence + waiter-count read.
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    // order: seq_cst — the key must not be reordered before the waiter
    // registration, or a concurrent bump could be missed.
    std::uint64_t key = epoch_.load(std::memory_order_seq_cst);
    // Order the caller's predicate re-check after the waiter-count
    // increment in the seq_cst total order (the waiter half of Dekker).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return key;
  }

  /// The re-check found work: deregister without sleeping.
  void cancel_wait() noexcept {
    // order: release — deregistration must not sink above the caller's
    // predicate re-check; no acquire needed, nothing is read back.
    std::uint64_t prev = waiters_.fetch_sub(1, std::memory_order_release);
    CORDON_DCHECK(prev != 0, "eventcount waiter count underflow");
  }

  /// The re-check found nothing: sleep until an epoch bump newer than
  /// `key`.  Returns deregistered.
  void commit_wait(std::uint64_t key) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        // order: relaxed — the mutex orders this read against the
        // locked epoch bump in notify().
        return epoch_.load(std::memory_order_relaxed) != key;
      });
      // The epoch only ever increments (under this mutex), so a woken
      // waiter must observe a value strictly newer than its key — a
      // smaller one would mean the counter moved backwards.
      // order: relaxed — still under the mutex that guards every bump.
      CORDON_DCHECK(
          epoch_.load(std::memory_order_relaxed) - key < (1ull << 63),
          "eventcount epoch moved backwards");
    }
    // order: release — same contract as cancel_wait's deregistration.
    std::uint64_t prev = waiters_.fetch_sub(1, std::memory_order_release);
    CORDON_DCHECK(prev != 0, "eventcount waiter count underflow");
  }

  /// Wakes one parked waiter (all of them for notify_all).  The caller
  /// must have published the work it is advertising before calling.
  /// Returns whether it signalled: false — after one fence + one load —
  /// when no waiter is registered, which is what lets callers count real
  /// wakes rather than attempts.
  bool notify_one() noexcept { return notify(false); }
  bool notify_all() noexcept { return notify(true); }

 private:
  bool notify(bool all) noexcept {
    // Producer half of Dekker: order the caller's work-publication
    // before the waiter-count read.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // order: seq_cst — the producer half of Dekker; pairs with
    // prepare_wait's registration in the seq_cst total order.
    if (waiters_.load(std::memory_order_seq_cst) == 0) return false;
    {
      // The bump must happen under the mutex: commit_wait's predicate
      // runs under it, so a waiter is either not yet inside cv_.wait
      // (its predicate will see the new epoch) or is inside and will be
      // woken by the notify below.
      std::lock_guard<std::mutex> lock(mu_);
      // order: seq_cst — the bump must be visible to prepare_wait's key
      // snapshot; the mutex alone only covers committed waiters.
      epoch_.fetch_add(1, std::memory_order_seq_cst);
    }
    if (all)
      cv_.notify_all();
    else
      cv_.notify_one();
    return true;
  }

  std::atomic<std::uint64_t> waiters_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace cordon::parallel
