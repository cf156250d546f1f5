// Cooperative cancellation and deadlines: a long solve aborted mid-round
// returns promptly with a typed SolveError, the pool and the worker
// arenas are immediately reusable, and the service's deadline/overload
// paths fail futures with the right taxonomy codes (never a raw
// std::runtime_error).  Runs under TSAN in CI — the cancel() below races
// the solve on purpose.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/core/arena.hpp"
#include "src/core/cancel.hpp"
#include "src/engine/batch_executor.hpp"
#include "src/engine/registry.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/service/service.hpp"
#include "test_util.hpp"

namespace cc = cordon::core;
namespace ce = cordon::engine;
namespace cs = cordon::service;
using cordon::testing::expect_objective_near;

namespace {

using clk = std::chrono::steady_clock;

double seconds_since(clk::time_point t0) {
  return std::chrono::duration<double>(clk::now() - t0).count();
}

/// A gap instance big enough that one full solve takes a measurable
/// wall time on this machine (target >= `min_s` seconds), plus that
/// baseline solve's duration and objective.  Escalates n geometrically
/// so slow sanitizer builds don't pick an enormous instance.
///
/// gap specifically: below its 8-worker floor it routes to the
/// sequential solver, whose state loop carries a PollTicker; above the
/// floor the parallel path runs one round (one RoundSpan poll) per
/// staircase wave.  Either routing observes a mid-solve cancel —
/// unlike generated glws instances, which solve in a single round.
struct Baseline {
  ce::Instance inst;
  double solve_s = 0;
  double objective = 0;
};

Baseline long_running_instance(double min_s) {
  const ce::BatchExecutor exec;
  Baseline b;
  for (std::uint64_t n = 1'000; n <= 8'000; n *= 2) {
    b.inst = ce::builtin_registry().at("gap").generate({n, 4, 42});
    auto t0 = clk::now();
    ce::BatchReport rep = exec.run({&b.inst, 1}, {});
    b.solve_s = seconds_since(t0);
    EXPECT_TRUE(rep.items[0].ok) << rep.items[0].error;
    b.objective = rep.items[0].result.objective;
    if (b.solve_s >= min_s) break;
  }
  return b;
}

/// Calibrated once and shared: four tests need the same baseline and
/// re-measuring it would quadruple the suite's slowest component.
const Baseline& shared_baseline() {
  static Baseline b = long_running_instance(0.25);
  return b;
}

}  // namespace

TEST(Cancel, MidSolveCancelReturnsFastAndEverythingIsReusable) {
  const Baseline& base = shared_baseline();
  if (base.solve_s < 0.1)
    GTEST_SKIP() << "machine solves the largest probe in " << base.solve_s
                 << "s; no room to observe a mid-solve abort";

  const ce::BatchExecutor exec;
  cc::CancelToken token;
  std::array<cc::CancelToken*, 1> tokens{&token};

  const std::size_t arena_bytes_before = cc::worker_arena().bytes_in_use();
  const double cancel_after_s = base.solve_s / 10;
  std::thread canceller([&] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(cancel_after_s));
    token.cancel();
  });
  auto t0 = clk::now();
  ce::BatchReport rep = exec.run({&base.inst, 1}, {.tokens = tokens});
  const double aborted_s = seconds_since(t0);
  canceller.join();

  ASSERT_FALSE(rep.items[0].ok);
  EXPECT_EQ(rep.items[0].code, cc::SolveErrorCode::kCancelled);
  // Mid-solve abort means the remaining rounds were skipped: the run
  // must come in clearly under the uncancelled baseline, and the abort
  // itself (time past the cancel()) within a fraction of a full solve —
  // one round's worth of latency, with slack for scheduler noise.
  EXPECT_LT(aborted_s, base.solve_s * 0.9)
      << "cancelled run took " << aborted_s << "s vs full " << base.solve_s;
  EXPECT_LT(aborted_s - cancel_after_s, base.solve_s * 0.5)
      << "abort latency " << (aborted_s - cancel_after_s) << "s";

  // The unwound solve released its arena epoch on this thread...
  EXPECT_EQ(cc::worker_arena().bytes_in_use(), arena_bytes_before);
  // ...and the pool + arenas serve the very same workload correctly
  // right away, with no reset step in between.
  ce::BatchReport again = exec.run({&base.inst, 1}, {});
  ASSERT_TRUE(again.items[0].ok);
  EXPECT_EQ(again.items[0].result.objective, base.objective);
}

TEST(Cancel, PreCancelledTokenFailsBeforeAnyRound) {
  const ce::Solver& solver = ce::builtin_registry().at("gap");
  ce::Instance inst = solver.generate({2000, 4, 3});
  cc::CancelToken token;
  token.cancel();
  std::array<cc::CancelToken*, 1> tokens{&token};
  ce::BatchReport rep = ce::BatchExecutor().run({&inst, 1}, {.tokens = tokens});
  ASSERT_FALSE(rep.items[0].ok);
  EXPECT_EQ(rep.items[0].code, cc::SolveErrorCode::kCancelled);
  EXPECT_THROW({ throw rep.items[0].to_error(); }, cc::SolveError);
}

TEST(Cancel, DeadlineAbortsMidSolveTyped) {
  const Baseline& base = shared_baseline();
  if (base.solve_s < 0.1)
    GTEST_SKIP() << "machine too fast to catch a mid-solve deadline";
  cc::CancelToken token;
  token.set_timeout(std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(base.solve_s / 10)));
  std::array<cc::CancelToken*, 1> tokens{&token};
  auto t0 = clk::now();
  ce::BatchReport rep =
      ce::BatchExecutor().run({&base.inst, 1}, {.tokens = tokens});
  ASSERT_FALSE(rep.items[0].ok);
  EXPECT_EQ(rep.items[0].code, cc::SolveErrorCode::kDeadlineExceeded);
  EXPECT_LT(seconds_since(t0), base.solve_s * 0.9);
}

TEST(Cancel, TokenlessRunsAreUntouched) {
  // The no-token path must stay exactly as before: a null entry in the
  // token span (and a span shorter than the batch) means "not
  // cancellable", never a crash or a spurious abort.
  const ce::Solver& solver = ce::builtin_registry().at("lis");
  std::vector<ce::Instance> batch;
  batch.push_back(solver.generate({500, 4, 1}));
  batch.push_back(solver.generate({500, 4, 2}));
  std::array<cc::CancelToken*, 1> tokens{nullptr};  // shorter than batch
  ce::BatchReport rep = ce::BatchExecutor().run(batch, {.tokens = tokens});
  ASSERT_TRUE(rep.items[0].ok);
  ASSERT_TRUE(rep.items[1].ok);
}

// --- service-level deadline / cancel / shed ---------------------------------

TEST(Cancel, ServiceTimeoutFailsTheFutureTyped) {
  const Baseline& base = shared_baseline();
  if (base.solve_s < 0.1) GTEST_SKIP() << "machine too fast";
  cs::CordonService svc({.cache_capacity = 0});
  cs::SubmitOptions sopt;
  sopt.timeout = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(base.solve_s / 20));
  try {
    (void)svc.submit(base.inst, sopt).get();
    FAIL() << "a deadline a twentieth of the solve time must fail";
  } catch (const cc::SolveError& e) {
    EXPECT_EQ(e.code(), cc::SolveErrorCode::kDeadlineExceeded) << e.what();
  }
  // The service keeps serving; the failed run was never cached.
  const ce::Solver& lis = ce::builtin_registry().at("lis");
  ce::Instance good = lis.generate({100, 4, 5});
  expect_objective_near(svc.submit(good).get().objective,
                        lis.solve(good).objective, "after deadline failure");
  cs::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(Cancel, ServiceCancelTokenFailsTheFutureTyped) {
  const Baseline& base = shared_baseline();
  if (base.solve_s < 0.1) GTEST_SKIP() << "machine too fast";
  cs::CordonService svc({.cache_capacity = 0});
  cs::SubmitOptions sopt;
  sopt.token = std::make_shared<cc::CancelToken>();
  std::future<ce::SolveResult> fut = svc.submit(base.inst, sopt);
  sopt.token->cancel();
  try {
    (void)fut.get();
    FAIL() << "cancelled request must fail its future";
  } catch (const cc::SolveError& e) {
    EXPECT_EQ(e.code(), cc::SolveErrorCode::kCancelled) << e.what();
  }
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST(Cancel, RejectNewShedsTheNewcomerWithRetryHint) {
  // A gated solve holds the dispatcher, so with max_queue = 1 the
  // second request fills the queue and the third is shed: the admission
  // decision below is deterministic.
  cordon::testing::Gate gate;
  ce::ProblemRegistry reg = cordon::testing::gated_lis_registry(gate);
  const ce::Solver& solver = reg.at("lis");
  cs::CordonService svc({.cache_capacity = 0,
                         .max_queue = 1,
                         .overload_policy = cs::OverloadPolicy::kRejectNew},
                        reg);
  std::future<ce::SolveResult> running =
      svc.submit(solver.generate({80, 4, 1}));
  gate.wait_started(1);
  std::future<ce::SolveResult> admitted =
      svc.submit(solver.generate({80, 4, 2}));
  std::future<ce::SolveResult> rejected =
      svc.submit(solver.generate({80, 4, 3}));
  // The shed is settled inside submit(), before any batch has completed,
  // so the retry hint cannot lean on a measured batch time.
  EXPECT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(svc.stats().batches, 0u);
  gate.open();
  try {
    (void)rejected.get();
    FAIL() << "third submit must be shed at max_queue = 1";
  } catch (const cc::SolveError& e) {
    EXPECT_EQ(e.code(), cc::SolveErrorCode::kShed) << e.what();
    EXPECT_GT(e.retry_after().count(), 0);
  }
  // The admitted requests are untouched by the rejection.
  EXPECT_GT(admitted.get().objective, 0.0);
  EXPECT_GT(running.get().objective, 0.0);
  cs::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(Cancel, ShedOldestEvictsTheHeadAndAdmitsTheNewcomer) {
  // As above: the gate holds the first request in the dispatcher, so
  // the second is the queue's head when the third arrives.
  cordon::testing::Gate gate;
  ce::ProblemRegistry reg = cordon::testing::gated_lis_registry(gate);
  const ce::Solver& solver = reg.at("lis");
  cs::CordonService svc({.cache_capacity = 0,
                         .max_queue = 1,
                         .overload_policy = cs::OverloadPolicy::kShedOldest},
                        reg);
  ce::Instance newer = solver.generate({80, 4, 3});
  std::future<ce::SolveResult> running =
      svc.submit(solver.generate({80, 4, 1}));
  gate.wait_started(1);
  std::future<ce::SolveResult> oldest = svc.submit(solver.generate({80, 4, 2}));
  std::future<ce::SolveResult> admitted = svc.submit(newer);
  gate.open();
  try {
    (void)oldest.get();
    FAIL() << "the queue head must be shed under shed-oldest";
  } catch (const cc::SolveError& e) {
    EXPECT_EQ(e.code(), cc::SolveErrorCode::kShed) << e.what();
  }
  expect_objective_near(
      admitted.get().objective,
      ce::builtin_registry().at("lis").solve(newer).objective,
      "newcomer under shed-oldest");
  EXPECT_GT(running.get().objective, 0.0);
  EXPECT_EQ(svc.stats().shed, 1u);
}

TEST(Cancel, ShutdownThrowIsTyped) {
  cs::CordonService svc;
  svc.shutdown();
  const ce::Solver& solver = ce::builtin_registry().at("lis");
  try {
    (void)svc.submit(solver.generate({10, 4, 1}));
    FAIL() << "submit after shutdown must throw";
  } catch (const cc::SolveError& e) {
    EXPECT_EQ(e.code(), cc::SolveErrorCode::kShutdown);
  }
}

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  int rc = RUN_ALL_TESTS();
  cordon::parallel::detail::shutdown_pool();
  return rc;
}
