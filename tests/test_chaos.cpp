// Chaos suite: seeded fault plans (core/fault.hpp) against the full
// service stack, plus the deadline/cancel/shed storms that run in every
// build.  The invariants are always the same — no crash, every future
// resolves with a result or a core::SolveError (no other exception type
// exists on the failure surface), session lineages stay linear — and
// the journal recovery round-trip reproduces an uninterrupted lineage
// bit-identically.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/cancel.hpp"
#include "src/core/fault.hpp"
#include "src/engine/delta.hpp"
#include "src/engine/registry.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/service/service.hpp"
#include "test_util.hpp"

namespace cc = cordon::core;
namespace cf = cordon::core::fault;
namespace ce = cordon::engine;
namespace cs = cordon::service;
namespace fs = std::filesystem;
using cordon::testing::expect_objective_near;

namespace {

/// Disarms on every exit path so one test's plan can never leak into
/// the next.
struct ArmGuard {
  explicit ArmGuard(const cf::FaultPlan& plan) { cf::arm(plan); }
  ~ArmGuard() { cf::disarm(); }
  ArmGuard(const ArmGuard&) = delete;
  ArmGuard& operator=(const ArmGuard&) = delete;
};

/// Fresh per-test scratch directory under the system temp root.
fs::path scratch_dir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("cordon-chaos-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Per-category outcome counts for one chaos run.  `untyped` — a failed
/// future whose exception was NOT a core::SolveError — must always end
/// up zero: it is the one bucket the taxonomy forbids.
struct Tally {
  std::uint64_t ok = 0;
  std::uint64_t invalid = 0;
  std::uint64_t deadline = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t shed = 0;
  std::uint64_t shutdown = 0;
  std::uint64_t internal = 0;
  std::uint64_t untyped = 0;

  [[nodiscard]] std::uint64_t total() const {
    return ok + invalid + deadline + cancelled + shed + shutdown + internal +
           untyped;
  }
};

void count_error(Tally& t, const cc::SolveError& e) {
  switch (e.code()) {
    case cc::SolveErrorCode::kInvalidArgument: ++t.invalid; break;
    case cc::SolveErrorCode::kDeadlineExceeded: ++t.deadline; break;
    case cc::SolveErrorCode::kCancelled: ++t.cancelled; break;
    case cc::SolveErrorCode::kShed: ++t.shed; break;
    case cc::SolveErrorCode::kShutdown: ++t.shutdown; break;
    case cc::SolveErrorCode::kInternal: ++t.internal; break;
  }
}

/// Concurrent clients hammer one service with every registered family;
/// optionally a third of the requests carry tight deadlines and a
/// quarter carry tokens that get cancelled mid-flight.  Every completed
/// result is oracle-checked; every failure must be a typed SolveError.
Tally chaos_clients(const cs::ServiceOptions& sopt, bool with_deadlines,
                    bool with_cancels, std::size_t clients = 4,
                    std::size_t per_client = 30) {
  const auto& reg = ce::builtin_registry();
  std::vector<ce::Instance> pool;
  std::vector<double> want;
  for (const auto& solver : reg.solvers()) {
    ce::Instance inst = solver->generate({60, 4, 99});
    want.push_back(solver->solve_reference(inst).objective);
    pool.push_back(std::move(inst));
  }

  cs::CordonService svc(sopt, reg);
  std::mutex mu;
  Tally tally;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::pair<std::size_t, std::future<ce::SolveResult>>> futs;
      std::vector<std::shared_ptr<cc::CancelToken>> tokens;
      for (std::size_t r = 0; r < per_client; ++r) {
        std::size_t idx = (c * per_client + r) % pool.size();
        cs::SubmitOptions so;
        if (with_deadlines && r % 3 == 1)
          so.timeout = (r % 2 != 0) ? std::chrono::microseconds(50)
                                    : std::chrono::milliseconds(5);
        if (with_cancels && r % 4 == 2) {
          so.token = std::make_shared<cc::CancelToken>();
          tokens.push_back(so.token);
        }
        futs.emplace_back(idx, svc.submit(pool[idx], std::move(so)));
      }
      for (auto& t : tokens) t->cancel();
      Tally local;
      for (auto& [idx, fut] : futs) {
        try {
          ce::SolveResult r = fut.get();
          expect_objective_near(r.objective, want[idx],
                                "chaos result for " + pool[idx].kind);
          ++local.ok;
        } catch (const cc::SolveError& e) {
          count_error(local, e);
        } catch (const std::exception& e) {
          ++local.untyped;
          ADD_FAILURE() << "untyped exception out of a submit future: "
                        << e.what();
        }
      }
      std::lock_guard lock(mu);
      tally.ok += local.ok;
      tally.invalid += local.invalid;
      tally.deadline += local.deadline;
      tally.cancelled += local.cancelled;
      tally.shed += local.shed;
      tally.shutdown += local.shutdown;
      tally.internal += local.internal;
      tally.untyped += local.untyped;
    });
  }
  for (auto& t : threads) t.join();
  return tally;
}

/// Durable sessions under whatever plan is armed: creates, appends with
/// bounded retry (injected failures are typed and retryable), tolerates
/// journal-fault poisoning, and asserts the lineage stayed linear —
/// the version advanced once per acknowledged append, at most one
/// further step when a journal write poisoned the session mid-advance.
void chaos_sessions(const fs::path& journal_dir, std::size_t n_sessions,
                    std::size_t target_appends) {
  const ce::Solver& lis = ce::builtin_registry().at("lis");
  cs::CordonService svc({.journal_dir = journal_dir.string()});
  for (std::size_t s = 0; s < n_sessions; ++s) {
    ce::Instance full =
        lis.generate({100 + 50 * target_appends, 4, 1000 + s});
    std::uint64_t id = 0;
    bool created = false;
    for (int attempt = 0; attempt < 200 && !created; ++attempt) {
      try {
        id = svc.create_session(ce::prefix_instance(full, 100));
        created = true;
      } catch (const cc::SolveError&) {  // injected journal/arena fault
      } catch (const std::bad_alloc&) {  // injected arena fault, unwrapped
      }
    }
    if (!created) {
      ADD_FAILURE() << "create_session never succeeded under the plan";
      continue;
    }
    std::uint64_t ok_appends = 0;
    bool frozen = false;  // journal fault poisoned the session
    for (std::size_t v = 0; v < target_appends && !frozen; ++v) {
      for (int attempt = 0; attempt < 200; ++attempt) {
        auto info = svc.session_info(id);
        ASSERT_TRUE(info.has_value());
        if (info->poisoned) {
          frozen = true;
          break;
        }
        try {
          (void)svc.append(id, ce::slice_delta(full, 100 + 50 * v,
                                               150 + 50 * v, info->version))
              .get();
          ++ok_appends;
          break;
        } catch (const cc::SolveError&) {  // typed; retry
        } catch (const std::exception& e) {
          ADD_FAILURE() << "untyped exception out of an append future: "
                        << e.what();
          break;
        }
      }
    }
    auto info = svc.session_info(id);
    ASSERT_TRUE(info.has_value());
    // Linearity: one version per acknowledged append; a poisoning
    // journal failure may leave memory exactly one step ahead of the
    // acknowledged count, never more.
    EXPECT_GE(info->version, ok_appends);
    EXPECT_LE(info->version, ok_appends + (frozen ? 1 : 0));
    svc.close_session(id);
  }
}

}  // namespace

// --- storms that run in every build (no injection needed) -------------------

TEST(Chaos, DeadlineStormResolvesEveryFutureTyped) {
  Tally t = chaos_clients({.cache_capacity = 0},
                          /*with_deadlines=*/true, /*with_cancels=*/false);
  EXPECT_EQ(t.untyped, 0u);
  EXPECT_EQ(t.total(), 4u * 30u);
  EXPECT_GT(t.deadline, 0u) << "50us deadlines must expire some requests";
  EXPECT_GT(t.ok, 0u);
}

TEST(Chaos, CancelStormResolvesEveryFutureTyped) {
  Tally t = chaos_clients({.cache_capacity = 0},
                          /*with_deadlines=*/false, /*with_cancels=*/true);
  EXPECT_EQ(t.untyped, 0u);
  EXPECT_EQ(t.total(), 4u * 30u);
  EXPECT_GT(t.ok, 0u);
}

TEST(Chaos, OverloadStormShedsTypedUnderBothPolicies) {
  for (cs::OverloadPolicy policy :
       {cs::OverloadPolicy::kRejectNew, cs::OverloadPolicy::kShedOldest}) {
    Tally t = chaos_clients({.max_batch = 8,
                             .cache_capacity = 0,
                             .max_queue = 2,
                             .overload_policy = policy},
                            /*with_deadlines=*/false, /*with_cancels=*/false,
                            /*clients=*/6, /*per_client=*/30);
    EXPECT_EQ(t.untyped, 0u);
    EXPECT_EQ(t.total(), 6u * 30u);
    EXPECT_GT(t.shed, 0u) << "6x30 submits against a 2-deep queue must shed";
    EXPECT_GT(t.ok, 0u) << "shedding must not starve the queue entirely";
  }
}

// --- seeded fault plans (compiled out in Release; suite skips) --------------

TEST(Chaos, SeededFaultPlansYieldOnlyTypedOutcomesAndLinearLineages) {
  if (!cf::kEnabled)
    GTEST_SKIP() << "fault layer compiled out (Release without "
                    "-DCORDON_FAULT=ON)";
  using S = cf::Site;
  struct NamedPlan {
    const char* name;
    cf::FaultPlan plan;
  };
  // >= 8 distinct seeded plans, covering every injection site alone and
  // in combination.  Rates are ppm; arena draws happen per allocation
  // (millions per solve), so its rates sit far below the coarse sites'.
  const std::vector<NamedPlan> plans = {
      {"arena-low", cf::FaultPlan{11, {}}.with(S::kArenaAlloc, 50)},
      {"arena-high", cf::FaultPlan{22, {}}.with(S::kArenaAlloc, 500)},
      {"delta-apply", cf::FaultPlan{33, {}}.with(S::kDeltaApply, 100'000)},
      {"cache-pressure", cf::FaultPlan{44, {}}.with(S::kCacheEvict, 300'000)},
      {"journal-io", cf::FaultPlan{55, {}}.with(S::kJournalIo, 50'000)},
      {"worker-wake", cf::FaultPlan{66, {}}.with(S::kWorkerWake, 2'000)},
      {"alloc+journal", cf::FaultPlan{77, {}}
                            .with(S::kArenaAlloc, 50)
                            .with(S::kJournalIo, 50'000)},
      {"everything", cf::FaultPlan{88, {}}
                         .with(S::kArenaAlloc, 20)
                         .with(S::kDeltaApply, 50'000)
                         .with(S::kCacheEvict, 100'000)
                         .with(S::kJournalIo, 20'000)
                         .with(S::kWorkerWake, 1'000)},
  };
  std::uint64_t injected = 0;
  for (const NamedPlan& np : plans) {
    SCOPED_TRACE(np.name);
    fs::path dir = scratch_dir(std::string("plan-") + np.name);
    ArmGuard armed(np.plan);
    Tally t = chaos_clients({},
                            /*with_deadlines=*/true, /*with_cancels=*/true,
                            /*clients=*/3, /*per_client=*/20);
    EXPECT_EQ(t.untyped, 0u);
    EXPECT_EQ(t.total(), 3u * 20u);
    chaos_sessions(dir, /*n_sessions=*/2, /*target_appends=*/4);
    fs::remove_all(dir);
    // arm() zeroes the counters, so read this plan's count while it is
    // still armed.
    injected += cf::injected_total();
  }
  // The plans must have actually bitten — a chaos suite whose faults
  // never fire proves nothing.  (Per-plan counts vary with thread
  // interleaving; the sum over 8 plans cannot be zero.)
  EXPECT_GT(injected, 0u);
}

// --- durable recovery -------------------------------------------------------

TEST(Chaos, JournalRecoveryRoundTripIsBitIdentical) {
  fs::path dir = scratch_dir("recovery");
  const ce::Solver& lis = ce::builtin_registry().at("lis");
  ce::Instance full = lis.generate({600, 4, 21});
  constexpr std::uint64_t kAppends = 8;

  // The uninterrupted reference lineage (journaling off).
  std::vector<double> want;
  {
    cs::CordonService ref;
    std::uint64_t id = ref.create_session(ce::prefix_instance(full, 200));
    for (std::uint64_t v = 0; v < kAppends; ++v)
      want.push_back(ref.append(id, ce::slice_delta(full, 200 + 50 * v,
                                                    250 + 50 * v, v))
                         .get()
                         .objective);
    ref.close_session(id);
  }

  // Run the first half durably, then "crash" (destroy the service
  // without close_session — the journal survives on disk).
  std::uint64_t id = 0;
  {
    cs::CordonService svc({.journal_dir = dir.string()});
    id = svc.create_session(ce::prefix_instance(full, 200));
    for (std::uint64_t v = 0; v < 4; ++v)
      EXPECT_EQ(want[v], svc.append(id, ce::slice_delta(full, 200 + 50 * v,
                                                        250 + 50 * v, v))
                             .get()
                             .objective);
  }

  // Recover: same id, same version, bit-identical continuation.
  {
    cs::CordonService svc({.journal_dir = dir.string()});
    std::vector<std::uint64_t> ids = svc.recover();
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids[0], id);
    auto info = svc.session_info(id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->version, 4u);
    EXPECT_TRUE(info->durable);
    EXPECT_FALSE(info->poisoned);
    EXPECT_EQ(svc.stats().sessions_recovered, 1u);
    for (std::uint64_t v = 4; v < 6; ++v)
      EXPECT_EQ(want[v], svc.append(id, ce::slice_delta(full, 200 + 50 * v,
                                                        250 + 50 * v, v))
                             .get()
                             .objective);
    // Crash again, now with 6 durable versions.
  }

  // A crash mid-write leaves a half record: recovery must drop the
  // damaged tail and resume from the last whole version.
  {
    std::ofstream f(dir / ("session-" + std::to_string(id) + ".jnl"),
                    std::ios::app | std::ios::binary);
    f << "delta 7 999 0123";  // truncated frame, no payload
  }
  {
    cs::CordonService svc({.journal_dir = dir.string()});
    std::vector<std::uint64_t> ids = svc.recover();
    ASSERT_EQ(ids.size(), 1u);
    auto info = svc.session_info(id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->version, 6u) << "damaged tail must be dropped, whole "
                                    "records kept";
    EXPECT_FALSE(info->poisoned);
    for (std::uint64_t v = 6; v < kAppends; ++v)
      EXPECT_EQ(want[v], svc.append(id, ce::slice_delta(full, 200 + 50 * v,
                                                        250 + 50 * v, v))
                             .get()
                             .objective);
    // A clean close removes the journal: nothing left to recover.
    svc.close_session(id);
  }
  {
    cs::CordonService svc({.journal_dir = dir.string()});
    EXPECT_TRUE(svc.recover().empty());
  }
  fs::remove_all(dir);
}

TEST(Chaos, JournalFaultPoisonsTheSessionAndRecoveryResumes) {
  if (!cf::kEnabled) GTEST_SKIP() << "fault layer compiled out";
  fs::path dir = scratch_dir("poison");
  const ce::Solver& lis = ce::builtin_registry().at("lis");
  ce::Instance full = lis.generate({300, 4, 5});
  double want_v1;
  {
    cs::CordonService ref;
    std::uint64_t rid = ref.create_session(ce::prefix_instance(full, 100));
    (void)ref.append(rid, ce::slice_delta(full, 100, 150, 0)).get();
    want_v1 = ref.append(rid, ce::slice_delta(full, 150, 200, 1))
                  .get()
                  .objective;
    ref.close_session(rid);
  }

  std::uint64_t id = 0;
  {
    cs::CordonService svc({.journal_dir = dir.string()});
    id = svc.create_session(ce::prefix_instance(full, 100));
    (void)svc.append(id, ce::slice_delta(full, 100, 150, 0)).get();

    // Every journal write fails while this plan is armed.
    cf::FaultPlan all_journal{9, {}};
    all_journal.with(cf::Site::kJournalIo, 1'000'000);
    {
      ArmGuard armed(all_journal);
      try {
        (void)svc.append(id, ce::slice_delta(full, 150, 200, 1)).get();
        FAIL() << "append must fail when its journal write fails";
      } catch (const cc::SolveError& e) {
        EXPECT_EQ(e.code(), cc::SolveErrorCode::kInternal) << e.what();
      }
    }
    auto info = svc.session_info(id);
    ASSERT_TRUE(info.has_value());
    EXPECT_TRUE(info->poisoned);
    // Poisoning is sticky even after the faults stop: memory is ahead
    // of disk and the divergence must not widen.
    try {
      (void)svc.append(id, ce::slice_delta(full, 150, 200, 1)).get();
      FAIL() << "a poisoned session must refuse further appends";
    } catch (const cc::SolveError& e) {
      EXPECT_EQ(e.code(), cc::SolveErrorCode::kInternal) << e.what();
    }
    // Crash without close: the journal (base + v1 record) survives.
  }
  {
    cs::CordonService svc({.journal_dir = dir.string()});
    ASSERT_EQ(svc.recover().size(), 1u);
    auto info = svc.session_info(id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->version, 1u) << "recovery resumes from the last DURABLE "
                                    "version, not the poisoned in-memory one";
    EXPECT_FALSE(info->poisoned);
    EXPECT_EQ(want_v1,
              svc.append(id, ce::slice_delta(full, 150, 200, 1))
                  .get()
                  .objective);
    svc.close_session(id);
  }
  fs::remove_all(dir);
}

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  int rc = RUN_ALL_TESTS();
  cordon::parallel::detail::shutdown_pool();
  return rc;
}
