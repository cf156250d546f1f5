// Stateful solve sessions, end to end: delta text round-trips, hostile
// delta hardening, incremental-vs-cold oracle equivalence over long
// randomized append chains, transparent cold fallback for every
// non-incremental family, checkpoint survival across pool restarts, and
// the session bookkeeping surface (version lineage, pinned base cache
// entries, stats/metrics counters).
//
// OWN_MAIN: the pool-restart tests call parallel::detail::shutdown_pool()
// and parallel::set_num_workers() between cases, so this binary manages
// scheduler lifetime itself (and leaves no pool behind for static
// teardown).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/dp_stats.hpp"
#include "src/engine/delta.hpp"
#include "src/engine/instance.hpp"
#include "src/engine/registry.hpp"
#include "src/engine/solver.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/service/service.hpp"
#include "test_util.hpp"

namespace cc = cordon::core;
namespace ce = cordon::engine;
namespace cs = cordon::service;
namespace cp = cordon::parallel;
using cordon::core::SolvePath;
using cordon::testing::expect_objective_near;

namespace {

/// Randomized, strictly increasing cut points base < c_1 < ... < c_V = n:
/// the prefix length after each of V appends of irregular size.
std::vector<std::uint64_t> random_cuts(std::uint64_t base, std::uint64_t n,
                                       std::size_t versions,
                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::set<std::uint64_t> cuts;
  std::uniform_int_distribution<std::uint64_t> dist(base + 1, n - 1);
  while (cuts.size() < versions - 1) cuts.insert(dist(rng));
  cuts.insert(n);
  return {cuts.begin(), cuts.end()};
}

/// A handcrafted single-state dag append: one new state reachable from
/// state `from`, with edge weight `w`.  dag has no prefix/slice helpers
/// (edges have no per-state order), so session tests build its deltas
/// explicitly with absolute indices.
ce::Delta dag_append_state(const ce::Instance& grown, std::uint32_t from,
                           double w, std::uint64_t base_version) {
  const auto& d = grown.as<ce::DagInstance>();
  ce::Delta delta;
  delta.kind = "dag";
  delta.base_version = base_version;
  ce::DagInstance app;
  app.n = 1;
  app.objective = d.objective;
  app.edges.push_back({from, static_cast<std::uint32_t>(d.n), w, true});
  delta.append = app;
  return delta;
}

}  // namespace

// --- delta text round-trip --------------------------------------------------

TEST(Delta, RoundTripEveryFamily) {
  const auto& reg = ce::builtin_registry();
  for (const auto& solver : reg.solvers()) {
    const std::string kind(solver->key());
    ce::Delta delta;
    if (kind == "dag") {
      ce::Instance base = solver->generate({64, 4, 11});
      delta = dag_append_state(base, 3, 1.5, 7);
    } else {
      ce::Instance full = solver->generate({200, 4, 11});
      delta = ce::slice_delta(full, 150, 200, 7);
    }
    std::string text = ce::to_string(delta);
    ce::Delta back = ce::delta_from_string(text);
    EXPECT_EQ(back.kind, delta.kind) << kind;
    EXPECT_EQ(back.base_version, 7u) << kind;
    EXPECT_EQ(ce::delta_op_count(back), ce::delta_op_count(delta)) << kind;
    // Canonical text is the equality we actually rely on (cache keys
    // and the chain hash both consume it).
    EXPECT_EQ(ce::to_string(back), text) << kind;
  }
}

TEST(Delta, AppliedSliceReproducesPrefix) {
  const auto& reg = ce::builtin_registry();
  for (const char* kind : {"lis", "lcs", "glws", "kglws", "gap", "oat",
                           "obst", "treeglws"}) {
    ce::Instance full = reg.at(kind).generate({300, 4, 23});
    ce::Instance grown = ce::prefix_instance(full, 180);
    ce::apply_delta_inplace(grown, ce::slice_delta(full, 180, 300, 0));
    EXPECT_EQ(ce::canonical_key(grown).text,
              ce::canonical_key(ce::prefix_instance(full, 300)).text)
        << kind;
  }
}

// --- hostile delta hardening ------------------------------------------------

TEST(Delta, OverCapOpCountRejected) {
  // glws declares states by count, so an over-cap delta needs no
  // allocation to express.
  ce::Delta delta;
  delta.kind = "glws";
  delta.append = ce::GlwsInstance{ce::kMaxDeltaOps + 1, 0.0, {}};
  EXPECT_THROW(ce::validate_delta(delta), std::invalid_argument);
}

TEST(Delta, ResultOverDeclaredSizeCapRejected) {
  ce::Instance base;
  base.kind = "glws";
  base.payload = ce::GlwsInstance{ce::kMaxDeclaredSize - 5, 0.0, {}};
  ce::Delta delta;
  delta.kind = "glws";
  delta.append = ce::GlwsInstance{10, 0.0, {}};
  // Two under-cap halves summing over the cap: must fail, base intact.
  EXPECT_THROW(ce::apply_delta_inplace(base, delta), std::invalid_argument);
  EXPECT_EQ(base.as<ce::GlwsInstance>().n, ce::kMaxDeclaredSize - 5);
}

TEST(Delta, RepricingAppendRejected) {
  // An append adds states; it cannot retroactively change the cost of
  // existing ones.
  ce::Delta delta;
  delta.kind = "glws";
  ce::CostSpec changed;
  changed.scale = 3.0;
  delta.append = ce::GlwsInstance{4, 0.0, changed};
  EXPECT_THROW(ce::validate_delta(delta), std::invalid_argument);
}

TEST(Sessions, HostileDeltaFailsFutureNotSession) {
  const auto& reg = ce::builtin_registry();
  cs::CordonService svc({}, reg);
  ce::Instance full = reg.at("lis").generate({400, 4, 5});
  std::uint64_t id = svc.create_session(ce::prefix_instance(full, 300));

  // Kind mismatch: fails that future only.
  ce::Delta wrong_kind = ce::slice_delta(full, 300, 350, 0);
  wrong_kind.kind = "lcs";
  EXPECT_THROW(svc.append(id, wrong_kind).get(), cc::SolveError);

  // Stale lineage version: same (typed kInvalidArgument, never a raw
  // std::invalid_argument — the append future speaks the taxonomy).
  try {
    (void)svc.append(id, ce::slice_delta(full, 300, 350, 99)).get();
    FAIL() << "stale base version must fail the future";
  } catch (const cc::SolveError& e) {
    EXPECT_EQ(e.code(), cc::SolveErrorCode::kInvalidArgument);
  }

  // The session is still alive and still resumable after both failures.
  ce::SolveResult r =
      svc.append(id, ce::slice_delta(full, 300, 400, 0)).get();
  EXPECT_EQ(r.path, SolvePath::kResumed);
  EXPECT_EQ(r.objective, reg.at("lis").solve(full).objective);
  auto info = svc.session_info(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->version, 1u);
  svc.close_session(id);
}

// --- incremental vs cold oracle equivalence ---------------------------------

// Randomized append chains, >= 32 versions, bit-identical objectives.
// Sizes stay below the families' sequential cutoffs so the cold oracle
// runs the exact sequential algorithm the incremental state mirrors.
TEST(Sessions, IncrementalMatchesColdOverRandomizedChain) {
  const auto& reg = ce::builtin_registry();
  struct Case {
    const char* kind;
    std::uint64_t n;
  };
  for (Case c : {Case{"lis", 4000}, Case{"lcs", 2600}, Case{"glws", 1900}}) {
    const ce::Solver& solver = reg.at(c.kind);
    ce::Instance full = solver.generate({c.n, 4, 77});
    const std::uint64_t base = c.n / 2;
    std::vector<std::uint64_t> cuts = random_cuts(base, c.n, 36, 0xc0ffee);
    ASSERT_GE(cuts.size(), 32u) << c.kind;

    cs::CordonService svc({}, reg);
    std::uint64_t id = svc.create_session(ce::prefix_instance(full, base));
    std::uint64_t prev = base;
    for (std::size_t v = 0; v < cuts.size(); ++v) {
      ce::SolveResult got =
          svc.append(id, ce::slice_delta(full, prev, cuts[v], v)).get();
      ce::SolveResult cold = solver.solve(ce::prefix_instance(full, cuts[v]));
      EXPECT_EQ(got.objective, cold.objective)
          << c.kind << " version " << v + 1 << " (m=" << cuts[v] << ")";
      EXPECT_EQ(got.path, SolvePath::kResumed) << c.kind << " v" << v + 1;
      EXPECT_EQ(got.detail, cold.detail) << c.kind << " v" << v + 1;
      prev = cuts[v];
    }

    auto info = svc.session_info(id);
    ASSERT_TRUE(info.has_value()) << c.kind;
    EXPECT_TRUE(info->incremental) << c.kind;
    EXPECT_EQ(info->version, cuts.size()) << c.kind;
    EXPECT_EQ(info->resumes, cuts.size()) << c.kind;
    EXPECT_EQ(info->cold_solves, 0u) << c.kind;
    svc.close_session(id);
  }
}

// Solver-boundary equivalence (no service in the loop): resume() chains
// state -> state and every link reports resumed.
TEST(Sessions, SolverResumeChainsBitIdentical) {
  const auto& reg = ce::builtin_registry();
  for (const char* kind : {"lis", "lcs", "glws"}) {
    const ce::Solver& solver = reg.at(kind);
    ASSERT_TRUE(solver.incremental()) << kind;
    ce::Instance full = solver.generate({1500, 4, 31});
    std::shared_ptr<const ce::SolverState> state;
    ce::SolveResult base_r =
        solver.solve_checkpoint(ce::prefix_instance(full, 700), state);
    EXPECT_EQ(base_r.objective,
              solver.solve(ce::prefix_instance(full, 700)).objective)
        << kind;
    ASSERT_NE(state, nullptr) << kind;

    std::uint64_t prev = 700;
    for (std::uint64_t cut : random_cuts(700, 1500, 16, 0xbeef)) {
      ce::Instance grown = ce::prefix_instance(full, cut);
      ce::ResumeResult rr =
          solver.resume(state, grown, ce::slice_delta(full, prev, cut, 0));
      EXPECT_TRUE(rr.resumed) << kind << " at m=" << cut;
      EXPECT_EQ(rr.result.objective, solver.solve(grown).objective)
          << kind << " at m=" << cut;
      EXPECT_EQ(rr.result.path, SolvePath::kResumed) << kind;
      state = rr.state;
      prev = cut;
    }
  }
}

// --- cold fallback families -------------------------------------------------

TEST(Sessions, FallbackFamiliesStayCorrect) {
  const auto& reg = ce::builtin_registry();
  cs::CordonService svc({}, reg);
  for (const char* kind : {"gap", "oat", "obst", "kglws", "treeglws"}) {
    const ce::Solver& solver = reg.at(kind);
    EXPECT_FALSE(solver.incremental()) << kind;
    ce::Instance full = solver.generate({360, 4, 13});
    std::uint64_t id = svc.create_session(ce::prefix_instance(full, 240));
    std::uint64_t prev = 240;
    std::uint64_t version = 0;
    for (std::uint64_t cut : {std::uint64_t{280}, std::uint64_t{330},
                              std::uint64_t{360}}) {
      ce::SolveResult got =
          svc.append(id, ce::slice_delta(full, prev, cut, version)).get();
      ce::SolveResult cold = solver.solve(ce::prefix_instance(full, cut));
      expect_objective_near(got.objective, cold.objective,
                            std::string(kind) + " fallback append");
      EXPECT_NE(got.path, SolvePath::kResumed) << kind;
      prev = cut;
      ++version;
    }
    auto info = svc.session_info(id);
    ASSERT_TRUE(info.has_value()) << kind;
    EXPECT_FALSE(info->incremental) << kind;
    EXPECT_EQ(info->resumes, 0u) << kind;
    EXPECT_EQ(info->cold_solves, 3u) << kind;
    svc.close_session(id);
  }
}

TEST(Sessions, DagSessionViaHandcraftedDeltas) {
  const auto& reg = ce::builtin_registry();
  cs::CordonService svc({}, reg);
  const ce::Solver& solver = reg.at("dag");
  ce::Instance base = solver.generate({120, 4, 9});
  ce::Instance grown = base;  // mirror of the session's lineage
  std::uint64_t id = svc.create_session(base);
  for (std::uint64_t v = 0; v < 4; ++v) {
    ce::Delta delta =
        dag_append_state(grown, static_cast<std::uint32_t>(17 + v), 2.5, v);
    ce::apply_delta_inplace(grown, delta);
    ce::SolveResult got = svc.append(id, delta).get();
    expect_objective_near(got.objective, solver.solve(grown).objective,
                          "dag session append");
    EXPECT_NE(got.path, SolvePath::kResumed);
  }
  svc.close_session(id);
}

// A capability downgrade mid-lineage: an lcs delta that grows `b`
// invalidates the fixed-b index, so THAT append cold-falls-back — and
// rebuilds the checkpoint, so the next a-only append resumes again.
TEST(Sessions, LcsBGrowthFallsBackThenRecovers) {
  const auto& reg = ce::builtin_registry();
  const ce::Solver& solver = reg.at("lcs");
  cs::CordonService svc({}, reg);
  ce::Instance full = solver.generate({900, 4, 41});
  std::uint64_t id = svc.create_session(ce::prefix_instance(full, 700));

  ce::Delta grow_b;
  grow_b.kind = "lcs";
  grow_b.base_version = 0;
  ce::LcsInstance app;
  app.a = {1, 2, 3};
  app.b = {4, 5};
  grow_b.append = app;
  ce::Instance mirror = ce::prefix_instance(full, 700);
  ce::apply_delta_inplace(mirror, grow_b);

  ce::SolveResult r1 = svc.append(id, grow_b).get();
  EXPECT_NE(r1.path, SolvePath::kResumed);
  EXPECT_EQ(r1.objective, solver.solve(mirror).objective);

  ce::Delta grow_a;
  grow_a.kind = "lcs";
  grow_a.base_version = 1;
  ce::LcsInstance app2;
  app2.a = {6, 7, 8, 9};
  grow_a.append = app2;
  ce::apply_delta_inplace(mirror, grow_a);

  ce::SolveResult r2 = svc.append(id, grow_a).get();
  EXPECT_EQ(r2.path, SolvePath::kResumed);
  EXPECT_EQ(r2.objective, solver.solve(mirror).objective);

  auto info = svc.session_info(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->cold_solves, 1u);
  EXPECT_EQ(info->resumes, 1u);
  svc.close_session(id);
}

// A concave glws cost has no deque/treap envelope at all: every append
// cold-falls-back, transparently.
TEST(Sessions, ConcaveGlwsFallsBackCold) {
  const auto& reg = ce::builtin_registry();
  const ce::Solver& solver = reg.at("glws");
  cs::CordonService svc({}, reg);
  ce::Instance base;
  base.kind = "glws";
  ce::CostSpec concave;
  concave.family = ce::CostSpec::Family::kLogarithmic;
  base.payload = ce::GlwsInstance{600, 0.0, concave};
  std::uint64_t id = svc.create_session(base);

  ce::Delta delta;
  delta.kind = "glws";
  delta.base_version = 0;
  delta.append = ce::GlwsInstance{50, 0.0, {}};
  ce::Instance mirror = ce::apply_delta(base, delta);

  ce::SolveResult got = svc.append(id, delta).get();
  EXPECT_NE(got.path, SolvePath::kResumed);
  EXPECT_EQ(got.objective, solver.solve(mirror).objective);
  svc.close_session(id);
}

// --- checkpoint survival across pool restarts -------------------------------

// Resumable state must be plain heap memory, never worker-slot or arena
// backed: a checkpoint taken under one pool incarnation must resume
// bit-identically after shutdown_pool() + set_num_workers().  Runs at
// the solver boundary — shutdown_pool() requires a quiescent pool with
// no live ExternalWorkerScope, and a CordonService's dispatcher holds
// an adopted slot for its whole lifetime, so no service may be alive
// across the restart.
TEST(Sessions, CheckpointSurvivesPoolRestart) {
  const auto& reg = ce::builtin_registry();
  for (const char* kind : {"lis", "lcs", "glws"}) {
    const ce::Solver& solver = reg.at(kind);
    ce::Instance full = solver.generate({1600, 4, 59});

    std::shared_ptr<const ce::SolverState> state;
    (void)solver.solve_checkpoint(ce::prefix_instance(full, 1000), state);
    ASSERT_NE(state, nullptr) << kind;

    ce::Instance mid = ce::prefix_instance(full, 1200);
    ce::ResumeResult r1 =
        solver.resume(state, mid, ce::slice_delta(full, 1000, 1200, 0));
    EXPECT_TRUE(r1.resumed) << kind;
    state = r1.state;

    // Restart the pool at a different width mid-lineage.
    cp::detail::shutdown_pool();
    ASSERT_TRUE(cp::set_num_workers(2)) << kind;

    ce::ResumeResult r2 =
        solver.resume(state, full, ce::slice_delta(full, 1200, 1600, 1));
    EXPECT_TRUE(r2.resumed) << kind;
    EXPECT_EQ(r2.result.path, SolvePath::kResumed) << kind;
    EXPECT_EQ(r2.result.objective, solver.solve(full).objective) << kind;
  }
  cp::detail::shutdown_pool();
}

// --- lineage and bookkeeping ------------------------------------------------

TEST(Sessions, BaseVersionMismatchRejectedLineageIntact) {
  const auto& reg = ce::builtin_registry();
  cs::CordonService svc({}, reg);
  ce::Instance full = reg.at("lis").generate({500, 4, 3});
  std::uint64_t id = svc.create_session(ce::prefix_instance(full, 300));

  // Stale version: rejected, version unchanged.
  EXPECT_THROW(svc.append(id, ce::slice_delta(full, 300, 400, 4)).get(),
               cc::SolveError);
  auto info = svc.session_info(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->version, 0u);

  // The correctly-versioned append still lands.
  ce::SolveResult r = svc.append(id, ce::slice_delta(full, 300, 400, 0)).get();
  EXPECT_EQ(r.objective,
            reg.at("lis").solve(ce::prefix_instance(full, 400)).objective);
  svc.close_session(id);
}

TEST(Sessions, UnknownAndClosedSessionsFailTheFuture) {
  const auto& reg = ce::builtin_registry();
  cs::CordonService svc({}, reg);
  ce::Instance full = reg.at("lis").generate({200, 4, 3});
  ce::Delta delta = ce::slice_delta(full, 100, 200, 0);

  EXPECT_THROW(svc.append(777, delta).get(), cc::SolveError);

  std::uint64_t id = svc.create_session(ce::prefix_instance(full, 100));
  svc.close_session(id);
  svc.close_session(id);  // idempotent
  EXPECT_FALSE(svc.session_info(id).has_value());
  EXPECT_THROW(svc.append(id, delta).get(), cc::SolveError);
}

TEST(Sessions, CreateSessionRejectsUnknownKind) {
  cs::CordonService svc;
  ce::Instance bogus;
  bogus.kind = "no-such-problem";
  bogus.payload = ce::LisInstance{{1, 2, 3}};
  EXPECT_THROW((void)svc.create_session(bogus), std::invalid_argument);
}

// The session pins its base's canonical cache entry: a flood of
// unrelated traffic larger than the whole cache cannot evict it, and
// close_session releases the pin so normal LRU resumes.
TEST(Sessions, PinnedBaseSurvivesCachePressure) {
  const auto& reg = ce::builtin_registry();
  cs::CordonService svc({.cache_capacity = 8, .cache_shards = 1}, reg);
  const ce::Solver& lis = reg.at("lis");
  ce::Instance base = lis.generate({300, 4, 1});
  std::uint64_t id = svc.create_session(base);

  auto flood = [&] {
    std::vector<std::future<ce::SolveResult>> futs;
    for (std::uint64_t s = 0; s < 32; ++s)
      futs.push_back(svc.submit(lis.generate({120, 4, 1000 + s})));
    for (auto& f : futs) (void)f.get();
  };

  flood();
  cordon::core::CacheStats before = svc.stats().cache;
  (void)svc.submit(base).get();  // pinned -> still resident -> cache hit
  EXPECT_EQ(svc.stats().cache.hits, before.hits + 1);

  svc.close_session(id);
  flood();  // unpinned now: the same pressure evicts the base
  before = svc.stats().cache;
  (void)svc.submit(base).get();
  EXPECT_EQ(svc.stats().cache.hits, before.hits);
}

// A journal as written before the cache keyed on bytes: the lineage
// hash is seeded with FNV-1a of the base's wire text and folds in FNV-1a
// of each delta's text.  recover() must replay it unpoisoned, report the
// same base_hash, and pin the base where submit() finds it.
TEST(Sessions, JournalWithTextLineageHashesRecovers) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "cordon-sessions-text-lineage";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto& reg = ce::builtin_registry();
  const ce::Instance full = reg.at("lis").generate({500, 4, 7});
  const ce::Instance base = ce::prefix_instance(full, 200);
  const std::string base_text = ce::to_string(base);
  const std::uint64_t base_hash = ce::fnv1a64(base_text);
  constexpr std::uint64_t kId = 41, kVersions = 4;
  {
    auto journal =
        cs::SessionJournal::create(dir.string(), kId, base.kind, base_text);
    std::uint64_t chain = base_hash;
    for (std::uint64_t v = 0; v < kVersions; ++v) {
      const std::string delta_text = ce::to_string(
          ce::slice_delta(full, 200 + 50 * v, 250 + 50 * v, v));
      chain = (chain * 1099511628211ull) ^ ce::fnv1a64(delta_text);
      journal->append_delta(delta_text, v + 1, chain);
    }
  }

  {
    cs::CordonService svc({.journal_dir = dir.string()}, reg);
    ASSERT_EQ(svc.recover(), std::vector<std::uint64_t>{kId});
    auto info = svc.session_info(kId);
    ASSERT_TRUE(info.has_value());
    EXPECT_FALSE(info->poisoned);
    EXPECT_TRUE(info->durable);
    EXPECT_EQ(info->version, kVersions);
    EXPECT_EQ(info->base_hash, base_hash);

    const std::uint64_t hits = svc.stats().cache.hits;
    (void)svc.submit(base).get();
    EXPECT_EQ(svc.stats().cache.hits, hits + 1) << "recovered base not pinned "
                                                   "under submit()'s key";

    // The lineage goes on where the journal left it.
    ce::SolveResult grown =
        svc.append(kId, ce::slice_delta(full, 400, 500, kVersions)).get();
    expect_objective_near(grown.objective,
                          reg.at("lis").solve(full).objective,
                          "recovered lineage");
    svc.close_session(kId);
  }
  fs::remove_all(dir);
}

TEST(Sessions, StatsAndMetricsDistinguishResumeFromCold) {
  const auto& reg = ce::builtin_registry();
  cs::CordonService svc({}, reg);
  ce::Instance lis_full = reg.at("lis").generate({400, 4, 2});
  ce::Instance oat_full = reg.at("oat").generate({400, 4, 2});

  std::uint64_t a = svc.create_session(ce::prefix_instance(lis_full, 300));
  std::uint64_t b = svc.create_session(ce::prefix_instance(oat_full, 300));
  (void)svc.append(a, ce::slice_delta(lis_full, 300, 400, 0)).get();
  (void)svc.append(b, ce::slice_delta(oat_full, 300, 400, 0)).get();

  cs::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.sessions_created, 2u);
  EXPECT_EQ(stats.session_appends, 2u);
  EXPECT_EQ(stats.session_resumes, 1u);
  EXPECT_EQ(stats.session_cold_solves, 1u);

  std::string metrics = svc.metrics_text();
  EXPECT_NE(metrics.find("cordon_service_sessions_created_total 2"),
            std::string::npos);
  EXPECT_NE(metrics.find("cordon_service_session_resumes_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("cordon_service_session_cold_solves_total 1"),
            std::string::npos);

  svc.close_session(a);
  svc.close_session(b);
  EXPECT_EQ(svc.stats().sessions_closed, 2u);
}

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  int rc = RUN_ALL_TESTS();
  cordon::parallel::detail::shutdown_pool();
  return rc;
}
