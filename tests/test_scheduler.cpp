// Scheduler tests: fork-join correctness, nesting, sequential regions.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "src/parallel/event_count.hpp"
#include "src/parallel/scheduler.hpp"

namespace cp = cordon::parallel;

TEST(Scheduler, ParDoRunsBothSides) {
  int a = 0, b = 0;
  cp::par_do([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Scheduler, ParDoNested) {
  std::atomic<int> count{0};
  cp::par_do(
      [&] {
        cp::par_do([&] { count++; }, [&] { count++; });
      },
      [&] {
        cp::par_do([&] { count++; }, [&] { count++; });
      });
  EXPECT_EQ(count.load(), 4);
}

TEST(Scheduler, DeepNesting) {
  // Recursion 2^12 leaves: exercises deque depth and helping.
  std::atomic<std::uint64_t> sum{0};
  struct Rec {
    static void go(std::atomic<std::uint64_t>& s, int depth) {
      if (depth == 0) {
        s.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      cp::par_do([&] { go(s, depth - 1); }, [&] { go(s, depth - 1); });
    }
  };
  Rec::go(sum, 12);
  EXPECT_EQ(sum.load(), 1u << 12);
}

TEST(Scheduler, ParallelForCoversRangeExactlyOnce) {
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  cp::parallel_for(0, n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(Scheduler, ParallelForEmptyAndTiny) {
  int count = 0;
  cp::parallel_for(5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  cp::parallel_for(7, 8, [&](std::size_t i) { count += static_cast<int>(i); });
  EXPECT_EQ(count, 7);
}

TEST(Scheduler, SequentialRegionForcesInline) {
  cp::SequentialRegion seq;
  // Inside a sequential region the same thread runs everything, so a
  // non-atomic counter is safe.
  std::size_t count = 0;
  cp::parallel_for(0, 10000, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 10000u);
}

TEST(Scheduler, NumWorkersPositive) {
  EXPECT_GE(cp::num_workers(), 1u);
}

namespace {

// Mirrors detail::parallel_for_rec's halving recursion: the number of
// sequential chunks a range of n iterations produces at granularity g.
std::size_t chunk_count(std::size_t n, std::size_t g) {
  if (n == 0) return 0;
  if (n <= g) return 1;
  std::size_t mid = n / 2;
  return chunk_count(mid, g) + chunk_count(n - mid, g);
}

}  // namespace

TEST(Scheduler, AutoGranularityBoundaries) {
  const std::size_t w = cp::num_workers();
  const std::size_t floor = cp::kDefaultGranularityFloor;

  // n == 0 still yields a positive granularity (never divide-by-zero
  // downstream; parallel_for early-outs before it matters).
  EXPECT_GE(cp::auto_granularity(0), 1u);

  // n <= floor: granularity covers the whole range, one sequential
  // chunk — tiny loops never pay a fork.
  for (std::size_t n : {1ul, floor / 2, floor}) {
    std::size_t g = cp::auto_granularity(n);
    EXPECT_GE(g, 1u) << n;
    EXPECT_EQ(chunk_count(n, g), n == 0 ? 0u : 1u) << n;
  }

  // n just above the floor: the clamp kicks in (8*w chunks would make
  // chunks smaller than the floor), so granularity is exactly the floor.
  {
    std::size_t n = floor + 1;
    ASSERT_LT(n / (8 * w) + 1, floor) << "grid too coarse for this pool";
    EXPECT_EQ(cp::auto_granularity(n), floor);
    EXPECT_EQ(chunk_count(n, floor), 2u);
  }

  // Huge n: the ~8-chunks-per-worker heuristic wins over the floor and
  // the halving recursion yields between n/g and 2n/g chunks — enough
  // slack for stealing, bounded fork overhead.
  {
    std::size_t n = std::size_t{1} << 20;
    std::size_t g = cp::auto_granularity(n);
    EXPECT_EQ(g, n / (8 * w) + 1);
    std::size_t chunks = chunk_count(n, g);
    EXPECT_GE(chunks, (n + g - 1) / g / 2);
    EXPECT_LE(chunks, 2 * ((n + g - 1) / g));
  }

  // A caller-supplied floor of 1 disables the clamp entirely (expensive
  // loop bodies want maximum splitting).
  EXPECT_EQ(cp::auto_granularity(100, 1), 100 / (8 * w) + 1);
}

TEST(Scheduler, ParallelForBelowFloorRunsOnCaller) {
  cp::ensure_started();
  const std::thread::id me = std::this_thread::get_id();
  std::vector<std::thread::id> ran(cp::kDefaultGranularityFloor);
  cp::parallel_for(0, ran.size(), [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  for (std::size_t i = 0; i < ran.size(); ++i)
    EXPECT_EQ(ran[i], me) << "iteration " << i << " escaped the caller";
}

TEST(Scheduler, EffectiveParallelismDropsToOneInSequentialRegion) {
  cp::ensure_started();
  EXPECT_EQ(cp::effective_parallelism(), cp::num_workers());
  {
    cp::SequentialRegion seq;
    EXPECT_EQ(cp::effective_parallelism(), 1u);
  }
  EXPECT_EQ(cp::effective_parallelism(), cp::num_workers());
}

TEST(Scheduler, MaxWorkersCapsEveryIncarnation) {
  EXPECT_GE(cp::max_workers(), 8u);
  EXPECT_GE(cp::max_workers(), cp::num_workers());
  EXPECT_EQ(cp::worker_slots(), cp::max_workers() + cp::kMaxExternalWorkers);
}

TEST(Scheduler, SetNumWorkersLifecycle) {
  const std::size_t original = cp::num_workers();
  cp::ensure_started();
  // Refused while a pool is live: its deques are sized to the old count.
  EXPECT_FALSE(cp::set_num_workers(2));
  EXPECT_EQ(cp::num_workers(), original);

  cp::detail::shutdown_pool();
  EXPECT_FALSE(cp::set_num_workers(0));
  ASSERT_TRUE(cp::set_num_workers(2));
  EXPECT_EQ(cp::num_workers(), 2u);
  cp::ensure_started();
  std::atomic<int> count{0};
  cp::parallel_for(
      0, 1000, [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); },
      /*granularity=*/1, /*granularity_floor=*/1);
  EXPECT_EQ(count.load(), 1000);

  // Oversized requests clamp to the fixed cap (per-slot registries are
  // sized once from max_workers()).
  cp::detail::shutdown_pool();
  ASSERT_TRUE(cp::set_num_workers(cp::max_workers() + 1000));
  EXPECT_EQ(cp::num_workers(), cp::max_workers());

  // Restore the suite's original pool size for later tests.
  cp::detail::shutdown_pool();
  ASSERT_TRUE(cp::set_num_workers(original));
  EXPECT_EQ(cp::num_workers(), original);
  cp::ensure_started();
}

TEST(Scheduler, ExternalThreadAdoptsWorkerSlot) {
  cp::ensure_started();  // this thread (or an earlier test's) is worker 0
  std::thread outsider([] {
    // Without adoption an outside thread is anonymous worker 0.
    EXPECT_EQ(cp::worker_id(), 0u);

    cp::ExternalWorkerScope scope;
    EXPECT_TRUE(scope.adopted());
    EXPECT_GE(cp::worker_id(), cp::num_workers());

    // Nested adoption is a no-op: the thread already holds a slot.
    {
      cp::ExternalWorkerScope nested;
      EXPECT_FALSE(nested.adopted());
    }

    // Forks from the adopted thread produce correct results (and are
    // stealable by the pool, though that part is timing-dependent).
    const std::size_t n = 50000;
    std::vector<std::atomic<int>> hits(n);
    cp::parallel_for(0, n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  });
  outsider.join();
}

TEST(Scheduler, ExternalSlotsAreReusedAfterRelease) {
  cp::ensure_started();
  // Serial adopt/release cycles on fresh threads must never exhaust the
  // fixed slot pool.
  for (int round = 0; round < 20; ++round) {
    std::thread t([] {
      cp::ExternalWorkerScope scope;
      EXPECT_TRUE(scope.adopted());
      std::atomic<int> count{0};
      cp::par_do([&] { count++; }, [&] { count++; });
      EXPECT_EQ(count.load(), 2);
    });
    t.join();
  }
}

// notify_* reports whether it signalled, and the scheduler counts a wake
// (cordon_sched_wakes_total) only then: with no registered waiter a
// notify is one fence and one load, not a wake.
TEST(EventCount, NotifySignalsOnlyWhenAWaiterIsPrepared) {
  cp::EventCount ec;
  EXPECT_FALSE(ec.notify_one());
  EXPECT_FALSE(ec.notify_all());

  std::uint64_t key = ec.prepare_wait();
  EXPECT_TRUE(ec.notify_one());
  // The signal bumped the epoch, so committing with the stale key
  // returns at once instead of parking.
  ec.commit_wait(key);
  EXPECT_FALSE(ec.notify_one()) << "commit_wait deregistered the waiter";

  key = ec.prepare_wait();
  EXPECT_TRUE(ec.notify_all());
  ec.cancel_wait();
  EXPECT_FALSE(ec.notify_all()) << "cancel_wait deregistered the waiter";
}
