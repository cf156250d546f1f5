// Service layer: ShardedLruCache semantics, asynchronous admission,
// dispatch on arrival and coalescing, cache hit/miss/eviction
// accounting, failure isolation, shutdown draining, and oracle-checked
// correctness under concurrent client threads.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/instance.hpp"
#include "src/engine/registry.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/service/service.hpp"
#include "src/service/sharded_cache.hpp"
#include "test_util.hpp"

namespace ce = cordon::engine;
namespace cs = cordon::service;
using cordon::testing::expect_objective_near;

namespace {

std::uint64_t h(const std::string& s) {
  return static_cast<std::uint64_t>(std::hash<std::string>{}(s)) *
         0x9e3779b97f4a7c15ull;  // spread into the high bits shards use
}

}  // namespace

// --- ShardedLruCache --------------------------------------------------------

TEST(ShardedLruCache, MissThenHit) {
  cs::ShardedLruCache<int> cache(8, 4);
  EXPECT_FALSE(cache.get(h("a"), "a").has_value());
  cache.put(h("a"), "a", 41);
  auto v = cache.get(h("a"), "a");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 41);

  cordon::core::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(ShardedLruCache, LruEvictionRefreshedByGet) {
  // One shard so recency order is deterministic.
  cs::ShardedLruCache<int> cache(2, 1);
  cache.put(h("a"), "a", 1);
  cache.put(h("b"), "b", 2);
  EXPECT_TRUE(cache.get(h("a"), "a").has_value());  // a now most recent
  cache.put(h("c"), "c", 3);                        // evicts b, not a
  EXPECT_FALSE(cache.get(h("b"), "b").has_value());
  EXPECT_TRUE(cache.get(h("a"), "a").has_value());
  EXPECT_TRUE(cache.get(h("c"), "c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLruCache, PutRefreshesExistingKey) {
  cs::ShardedLruCache<int> cache(2, 1);
  cache.put(h("a"), "a", 1);
  cache.put(h("a"), "a", 7);  // refresh, not a second entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.get(h("a"), "a"), 7);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(ShardedLruCache, HashCollisionsCannotAlias) {
  // Same hash, different keys: full-key equality keeps them apart.
  cs::ShardedLruCache<int> cache(8, 4);
  cache.put(123, "left", 1);
  cache.put(123, "right", 2);
  EXPECT_EQ(*cache.get(123, "left"), 1);
  EXPECT_EQ(*cache.get(123, "right"), 2);
}

TEST(ShardedLruCache, CapacitySplitsAcrossShards) {
  cs::ShardedLruCache<int> cache(16, 4);
  EXPECT_EQ(cache.shard_count(), 4u);
  EXPECT_EQ(cache.capacity(), 16u);
  // Tiny capacity still gives every shard one slot.
  cs::ShardedLruCache<int> tiny(1, 8);
  EXPECT_EQ(tiny.capacity(), 8u);
}

TEST(ShardedLruCache, EvictionSkipsPinnedEntries) {
  // One shard so recency order is deterministic.
  cs::ShardedLruCache<int> cache(2, 1);
  cache.put(h("a"), "a", 1);
  EXPECT_TRUE(cache.pin(h("a"), "a"));
  cache.put(h("b"), "b", 2);  // a is now LRU-oldest, but pinned
  cache.put(h("c"), "c", 3);  // must evict b, the oldest unpinned
  EXPECT_TRUE(cache.get(h("a"), "a").has_value());
  EXPECT_FALSE(cache.get(h("b"), "b").has_value());
  EXPECT_TRUE(cache.get(h("c"), "c").has_value());
  EXPECT_EQ(cache.pinned(), 1u);
}

TEST(ShardedLruCache, UnpinReentersLruOrder) {
  cs::ShardedLruCache<int> cache(2, 1);
  cache.put_pinned(h("a"), "a", 1);
  EXPECT_EQ(cache.pinned(), 1u);
  EXPECT_TRUE(cache.unpin(h("a"), "a"));
  EXPECT_EQ(cache.pinned(), 0u);
  cache.put(h("b"), "b", 2);
  cache.put(h("c"), "c", 3);  // a unpinned and oldest: evicted normally
  EXPECT_FALSE(cache.get(h("a"), "a").has_value());
}

TEST(ShardedLruCache, PinsAreRefcounted) {
  cs::ShardedLruCache<int> cache(1, 1);
  cache.put_pinned(h("a"), "a", 1);
  EXPECT_TRUE(cache.pin(h("a"), "a"));  // second pinner
  EXPECT_TRUE(cache.unpin(h("a"), "a"));
  cache.put(h("b"), "b", 2);  // one pin still held: a survives
  EXPECT_TRUE(cache.get(h("a"), "a").has_value());  // a is MRU now
  EXPECT_TRUE(cache.unpin(h("a"), "a"));            // last pin released
  cache.put(h("c"), "c", 3);  // evicts b, the LRU-oldest unpinned
  cache.put(h("d"), "d", 4);  // then a: no longer exempt
  EXPECT_FALSE(cache.get(h("b"), "b").has_value());
  EXPECT_FALSE(cache.get(h("a"), "a").has_value());
}

TEST(ShardedLruCache, PinOnAbsentKeyReportsFalse) {
  cs::ShardedLruCache<int> cache(2, 1);
  EXPECT_FALSE(cache.pin(h("ghost"), "ghost"));
  EXPECT_FALSE(cache.unpin(h("ghost"), "ghost"));
}

TEST(ShardedLruCache, AllPinnedShardOvershootsInsteadOfEvicting) {
  cs::ShardedLruCache<int> cache(2, 1);
  cache.put_pinned(h("a"), "a", 1);
  cache.put_pinned(h("b"), "b", 2);
  cache.put(h("c"), "c", 3);  // every resident entry pinned: grow past cap
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_TRUE(cache.get(h("a"), "a").has_value());
  EXPECT_TRUE(cache.get(h("b"), "b").has_value());
  EXPECT_TRUE(cache.get(h("c"), "c").has_value());
}

TEST(ShardedLruCache, PutPinnedRefreshRaisesPinCount) {
  cs::ShardedLruCache<int> cache(2, 1);
  cache.put(h("a"), "a", 1);
  cache.put_pinned(h("a"), "a", 9);  // refresh + pin in one step
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.get(h("a"), "a"), 9);
  EXPECT_EQ(cache.pinned(), 1u);
  cache.put(h("b"), "b", 2);
  cache.put(h("c"), "c", 3);
  EXPECT_TRUE(cache.get(h("a"), "a").has_value());  // still pinned
}

// --- CordonService: basics --------------------------------------------------

TEST(CordonService, SingleSubmitMatchesDirectSolve) {
  const ce::Solver& solver = ce::builtin_registry().at("lis");
  ce::Instance inst = solver.generate({200, 4, 7});

  cs::CordonService svc;
  ce::SolveResult got = svc.submit(inst).get();
  expect_objective_near(got.objective, solver.solve(inst).objective,
                        "service vs direct");

  cs::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.solver.requests, 1u);
}

TEST(CordonService, RepeatSubmitIsServedFromCache) {
  const ce::Solver& solver = ce::builtin_registry().at("glws");
  ce::Instance inst = solver.generate({300, 4, 5});

  cs::CordonService svc;
  double first = svc.submit(inst).get().objective;

  // Second submit of the byte-identical workload: answered in submit(),
  // no new solver run.
  std::future<ce::SolveResult> fut = svc.submit(inst);
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(fut.get().objective, first);

  cs::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.solver.requests, 1u);
  EXPECT_GE(stats.cache.hits, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(CordonService, DuplicatesInFlightCollapseToOneSolve) {
  // Duplicates queued together coalesce in-batch; a duplicate that
  // queued behind its twin's batch hits the dispatcher's cache re-probe.
  // However they split across dispatches, the solver runs exactly once.
  const ce::Solver& solver = ce::builtin_registry().at("oat");
  ce::Instance inst = solver.generate({150, 4, 3});

  cs::CordonService svc({.max_batch = 64});
  std::vector<std::future<ce::SolveResult>> futs;
  for (int i = 0; i < 12; ++i) futs.push_back(svc.submit(inst));
  double want = solver.solve(inst).objective;
  for (auto& f : futs)
    expect_objective_near(f.get().objective, want, "coalesced duplicate");

  cs::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.solver.requests, 1u);
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_GE(stats.coalesced + stats.cache.hits, 11u);
}

TEST(CordonService, NoExceptionTypeLeaksThroughSubmit) {
  // The failure surface of submit() is exactly core::SolveError (which
  // IS-A std::runtime_error, so the older checks above still hold).  A
  // raw std::invalid_argument / out_of_range / bad_alloc escaping a
  // solver or the parser must be converted, never forwarded.
  cs::CordonService svc;
  ce::GlwsInstance hostile;
  hostile.n = ce::kMaxDeclaredSize + 1;
  struct Case {
    const char* what;
    ce::Instance inst;
  };
  // Parent arrays that are not one rooted tree.
  auto tree = [](std::vector<std::uint32_t> parent) {
    ce::TreeGlwsInstance p;
    p.parent = std::move(parent);
    return ce::Instance{"treeglws", p};
  };
  constexpr std::uint32_t kRoot = 0xffffffffu;
  ce::GlwsInstance negative_scale;
  negative_scale.n = 200;
  negative_scale.cost = {.family = ce::CostSpec::Family::kLogarithmic,
                         .open = 5,
                         .scale = -3};
  const Case cases[] = {
      {"unknown kind", ce::Instance{"no-such-problem", ce::LisInstance{{1}}}},
      {"hostile declared size", ce::Instance{"glws", hostile}},
      {"tree parent out of range", tree({kRoot, 0, 1, 900000})},
      {"tree with no root", tree({1, 0, 0})},
      {"tree with two roots", tree({kRoot, kRoot, 0})},
      {"negative cost scale", ce::Instance{"glws", negative_scale}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    try {
      (void)svc.submit(c.inst).get();
      FAIL() << "hostile submit must fail its future";
    } catch (const cordon::core::SolveError& e) {
      EXPECT_EQ(e.code(), cordon::core::SolveErrorCode::kInvalidArgument)
          << e.what();
      EXPECT_EQ(std::string(e.what()).rfind("invalid_argument: ", 0), 0u)
          << "what() must carry the taxonomy name: " << e.what();
    } catch (const std::exception& e) {
      FAIL() << "untyped exception leaked through submit(): " << e.what();
    }
  }
}

TEST(CordonService, FailuresSurfaceAsExceptionsAndAreNotCached) {
  cs::CordonService svc;
  ce::Instance bad{"no-such-problem", ce::LisInstance{{1, 2, 3}}};
  EXPECT_THROW(svc.submit(bad).get(), std::runtime_error);
  EXPECT_THROW(svc.submit(bad).get(), std::runtime_error);  // not cached

  // The dispatcher survives failures; good requests still complete.
  const ce::Solver& solver = ce::builtin_registry().at("lis");
  ce::Instance good = solver.generate({100, 4, 1});
  expect_objective_near(svc.submit(good).get().objective,
                        solver.solve(good).objective, "after failure");

  cs::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(CordonService, ShutdownDrainsPendingAndRejectsNewSubmits) {
  const ce::Solver& solver = ce::builtin_registry().at("obst");
  std::vector<ce::Instance> insts;
  std::vector<double> want;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    insts.push_back(solver.generate({80, 4, seed}));
    want.push_back(solver.solve(insts.back()).objective);
  }
  // Submit back to back, then shut down at once: whatever is still
  // queued must drain.
  cs::CordonService svc;
  std::vector<std::future<ce::SolveResult>> futs;
  for (const ce::Instance& inst : insts) futs.push_back(svc.submit(inst));
  svc.shutdown();  // must complete every admitted future
  svc.shutdown();  // idempotent
  for (std::size_t i = 0; i < futs.size(); ++i)
    expect_objective_near(futs[i].get().objective, want[i], "drained");
  EXPECT_THROW((void)svc.submit(solver.generate({10, 4, 9})),
               std::runtime_error);
  // Rejection must not depend on cache contents: a workload that WOULD
  // hit the cache is refused identically.
  EXPECT_THROW((void)svc.submit(solver.generate({80, 4, 1})),
               std::runtime_error);
}

TEST(CordonService, CacheEvictionKeepsSizeBounded) {
  const ce::Solver& solver = ce::builtin_registry().at("lis");
  cs::CordonService svc({.cache_capacity = 4, .cache_shards = 2});
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    (void)svc.submit(solver.generate({60, 4, seed})).get();

  EXPECT_LE(svc.cache_size(), 4u);
  cs::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cache.insertions, 12u);
  EXPECT_GE(stats.cache.evictions, 8u);
}

TEST(CordonService, CacheCanBeDisabled) {
  const ce::Solver& solver = ce::builtin_registry().at("lis");
  ce::Instance inst = solver.generate({100, 4, 2});
  cs::CordonService svc({.cache_capacity = 0});
  double a = svc.submit(inst).get().objective;
  double b = svc.submit(inst).get().objective;  // re-solved, not cached
  EXPECT_EQ(a, b);
  cs::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.solver.requests, 2u);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 0u);
  EXPECT_EQ(svc.cache_size(), 0u);
}

TEST(CordonService, QueueStatsCoverEveryQueuedRequest) {
  const ce::Solver& solver = ce::builtin_registry().at("lis");
  cs::CordonService svc;
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    (void)svc.submit(solver.generate({50, 4, seed})).get();
  cs::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.queue.enqueued, 5u);  // all distinct -> all queued
  EXPECT_GE(stats.queue.max_wait_s, stats.queue.mean_wait_s());
  EXPECT_EQ(stats.batches, 5u);  // sequential get() forces one per batch
  EXPECT_EQ(stats.largest_batch, 1u);
}

// --- CordonService: dispatch on arrival -------------------------------------

TEST(CordonService, DispatchTakesWhatQueuedBehindARunningBatch) {
  // The dispatcher takes a lone request at once; requests that queue
  // while its batch runs go out together in the next one.
  cordon::testing::Gate gate;
  ce::ProblemRegistry reg = cordon::testing::gated_lis_registry(gate);
  const ce::Solver& lis = ce::builtin_registry().at("lis");
  std::vector<ce::Instance> insts;
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    insts.push_back(lis.generate({60, 4, seed}));

  cs::CordonService svc({}, reg);
  std::vector<std::future<ce::SolveResult>> futs;
  futs.push_back(svc.submit(insts[0]));
  gate.wait_started(1);  // the first batch holds the dispatcher
  futs.push_back(svc.submit(insts[1]));
  futs.push_back(svc.submit(insts[2]));
  gate.open();
  for (std::size_t i = 0; i < futs.size(); ++i)
    expect_objective_near(futs[i].get().objective,
                          lis.solve(insts[i]).objective, "gated request");

  cs::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.largest_batch, 2u);
  EXPECT_EQ(stats.solver.requests, 3u);
}

// --- CordonService: hostile payloads ----------------------------------------

TEST(CordonService, HostileDeclaredSizesFailTheFutureNotTheProcess) {
  // A submit() whose payload declares an absurd size must cost one
  // failed future, not the whole process's memory (the canonical text
  // of such a payload is tiny — only the solver's allocation would
  // explode, and solve-time validation stops it first).
  cs::CordonService svc;
  ce::GlwsInstance glws;
  glws.n = ce::kMaxDeclaredSize + 1;
  EXPECT_THROW(svc.submit({"glws", glws}).get(), std::runtime_error);

  ce::DagInstance dag;
  dag.n = ce::kMaxDeclaredSize + 1;
  EXPECT_THROW(svc.submit({"dag", dag}).get(), std::runtime_error);

  // The service survives and keeps serving good requests.
  const ce::Solver& solver = ce::builtin_registry().at("lis");
  ce::Instance good = solver.generate({100, 4, 5});
  expect_objective_near(svc.submit(good).get().objective,
                        solver.solve(good).objective, "after hostile submit");
  cs::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 1u);
}

// --- CordonService: concurrent clients, oracle-checked ----------------------

TEST(CordonService, ConcurrentClientsGetOracleCheckedResults) {
  const auto& reg = ce::builtin_registry();

  // One distinct instance per registered family (derived from the
  // registry so new families are covered automatically); expected
  // objectives from the naive oracles, computed up front.
  std::vector<ce::Instance> pool;
  std::vector<double> want;
  for (const auto& solver : reg.solvers()) {
    ce::Instance inst = solver->generate({60, 4, 17});
    want.push_back(solver->solve_reference(inst).objective);
    pool.push_back(std::move(inst));
  }

  constexpr std::size_t kClients = 6;  // acceptance floor is 4
  constexpr std::size_t kRequestsPerClient = 36;
  cs::CordonService svc({.max_batch = 16});

  std::vector<std::vector<std::pair<std::size_t, std::future<ce::SolveResult>>>>
      per_client(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
        std::size_t idx = (c * kRequestsPerClient + r) % pool.size();
        per_client[c].emplace_back(idx, svc.submit(pool[idx]));
      }
    });
  }
  for (auto& t : clients) t.join();

  std::size_t checked = 0;
  for (auto& futs : per_client) {
    for (auto& [idx, fut] : futs) {
      expect_objective_near(fut.get().objective, want[idx],
                            "client request for " + pool[idx].kind);
      ++checked;
    }
  }
  EXPECT_EQ(checked, kClients * kRequestsPerClient);

  cs::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.completed, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.failed, 0u);
  // 216 requests over 9 distinct workloads: the sharded cache plus
  // in-batch coalescing must collapse almost everything.
  EXPECT_EQ(stats.solver.requests, pool.size());
  EXPECT_GE(stats.cache.hits + stats.coalesced,
            kClients * kRequestsPerClient - pool.size());
}
