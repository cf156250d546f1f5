// Thread-sweep suite: the multi-core claim's correctness half.
//
// The scaling harness (scripts/run_benches.sh + check_scaling.py)
// proves the parallel paths get FASTER with workers; this suite proves
// they never get WRONG: every registered family, solved on its
// production route at pool sizes {1, 2, 4, 8}, matches the naive
// reference oracle; the four routed families' parallel bodies
// (glws_parallel, lis_parallel, lcs_parallel, gap_parallel), called
// directly, match it too, and their work counts (states, relaxations,
// rounds) are identical at every pool size and across repeated solves;
// routing (src/core/cutoff.hpp) straddles its real size cutoffs at 8
// workers and routes sequentially below the 8-worker floors; and round
// fusion, which forks some rounds and runs others inline, changes no
// answer and no count.  treeglws's forked DFS must equal its one-thread
// DFS bit for bit on every tree shape and pool size, and lcs's parallel
// match-pair emission must write the same pairs in the same order.
//
// Ships its own main() (OWN_MAIN): it restarts the scheduler pool
// between cases (detail::shutdown_pool + set_num_workers), which is
// process-global, so this binary must own its scheduler lifecycle end
// to end.  The 8-worker sides of the routing tests need that: every
// other suite runs on the default pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cutoff.hpp"
#include "src/core/telemetry.hpp"
#include "src/engine/registry.hpp"
#include "src/gap/gap.hpp"
#include "src/glws/costs.hpp"
#include "src/glws/glws.hpp"
#include "src/lcs/lcs.hpp"
#include "src/lis/lis.hpp"
#include "src/parallel/random.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/structures/tree_utils.hpp"
#include "src/treeglws/tree_glws.hpp"
#include "test_util.hpp"

namespace cp = cordon::parallel;
namespace core = cordon::core;
namespace engine = cordon::engine;
namespace gap = cordon::gap;
namespace glws = cordon::glws;
namespace lcs = cordon::lcs;
namespace lis = cordon::lis;
namespace telemetry = cordon::telemetry;
namespace structures = cordon::structures;
namespace treeglws = cordon::treeglws;

namespace {

// Tears down the live pool and brings up a fresh one with exactly
// `workers` workers.  max_workers() >= 8 by contract, so every size in
// the sweep grid is representable without clamping.
void restart_pool(std::size_t workers) {
  cp::detail::shutdown_pool();
  ASSERT_TRUE(cp::set_num_workers(workers));
  cp::ensure_started();
  ASSERT_EQ(cp::num_workers(), workers);
}

// The exact-count contract: states, relaxations and rounds are a
// property of the instance, never of the schedule that solved it.
void expect_same_counts(const core::DpStats& got, const core::DpStats& want,
                        const std::string& what) {
  EXPECT_EQ(got.states, want.states) << what;
  EXPECT_EQ(got.relaxations, want.relaxations) << what;
  EXPECT_EQ(got.rounds, want.rounds) << what;
}

void expect_same_objective(double got, double want, const std::string& what) {
  EXPECT_NEAR(got, want, 1e-9 * (1.0 + std::abs(want))) << what;
}

std::uint64_t counter_since(const telemetry::Snapshot& base,
                            telemetry::Counter c) {
  return telemetry::snapshot().delta_since(base).counter(c);
}

// One solve of a routed family: its answer and its work.
struct Solved {
  double objective = 0;
  core::DpStats stats;
};

// A routed family's input bound to its entry points: the paper's
// parallel rounds, called directly whatever the pool size, and the
// sequential algorithm whose answers they must match.
struct Bodies {
  std::function<Solved()> parallel, sequential;
};

Bodies glws_bodies(std::size_t n, double d0, glws::CostFn w,
                   glws::Shape shape) {
  const glws::EFn e = glws::identity_e();
  return {[=] {
            auto r = glws::glws_parallel(n, d0, w, e, shape);
            return Solved{r.d.back(), r.stats};
          },
          [=] {
            auto r = glws::glws_sequential(n, d0, w, e, shape);
            return Solved{r.d.back(), r.stats};
          }};
}

Bodies lis_bodies(std::vector<std::uint64_t> values) {
  auto v = std::make_shared<const std::vector<std::uint64_t>>(
      std::move(values));
  return {[v] {
            auto r = lis::lis_parallel(*v);
            return Solved{static_cast<double>(r.length), r.stats};
          },
          [v] {
            auto r = lis::lis_sequential(*v);
            return Solved{static_cast<double>(r.length), r.stats};
          }};
}

Bodies lcs_bodies(const std::vector<std::uint32_t>& a,
                  const std::vector<std::uint32_t>& b) {
  auto pairs =
      std::make_shared<const lcs::MatchPairsSoA>(lcs::match_pairs_soa(a, b));
  return {[pairs] {
            auto r = lcs::lcs_parallel(*pairs);
            return Solved{static_cast<double>(r.length), r.stats};
          },
          [pairs] {
            auto r = lcs::lcs_sparse_seq(*pairs);
            return Solved{static_cast<double>(r.length), r.stats};
          }};
}

Bodies gap_bodies(const engine::GapInstance& p) {
  auto q = std::make_shared<const engine::GapInstance>(p);
  auto call = [q](auto body) {
    auto r = body(q->a, q->b, q->w1.make(), q->w2.make(), q->w1.shape());
    return Solved{r.distance, r.stats};
  };
  return {[call] { return call(gap::gap_parallel); },
          [call] { return call(gap::gap_seq); }};
}

// The bodies of an engine instance of a routed family.
Bodies bodies_of(const engine::Instance& inst) {
  if (inst.kind == "glws") {
    const auto& p = inst.as<engine::GlwsInstance>();
    return glws_bodies(p.n, p.d0, p.cost.make(), p.cost.shape());
  }
  if (inst.kind == "lis")
    return lis_bodies(inst.as<engine::LisInstance>().values);
  if (inst.kind == "lcs") {
    const auto& p = inst.as<engine::LcsInstance>();
    return lcs_bodies(p.a, p.b);
  }
  return gap_bodies(inst.as<engine::GapInstance>());
}

constexpr const char* kRouted[] = {"glws", "lis", "lcs", "gap"};

// A routed family's size cutoff, in the work unit of work_of.
std::size_t cutoff_of(const std::string& key) {
  if (key == "glws") return core::kGlwsSeqCutoff;
  if (key == "gap") return core::kGapSeqCutoff;
  return core::kLisSeqCutoff;  // lis and lcs share one rule
}

// The work measure a routed family's size cutoff is stated in: glws
// states, lis keys, lcs match pairs, gap cells.
std::size_t work_of(const engine::Instance& inst) {
  if (inst.kind == "glws") return inst.as<engine::GlwsInstance>().n;
  if (inst.kind == "lis") return inst.as<engine::LisInstance>().values.size();
  if (inst.kind == "lcs") {
    const auto& p = inst.as<engine::LcsInstance>();
    return lcs::match_pairs_soa(p.a, p.b).size();
  }
  const auto& p = inst.as<engine::GapInstance>();
  return (p.a.size() + 1) * (p.b.size() + 1);
}

// The route Solver::solve must take at `workers` workers.  oat, obst,
// kglws and dag do not route; a treeglws instance of under 8192 nodes
// has no subtree big enough to fork at, so its DFS reports the
// sequential path.
core::SolvePath production_path(const engine::Instance& inst,
                                std::size_t workers) {
  if (inst.kind == "treeglws") return core::SolvePath::kSequentialCutoff;
  if (std::find(std::begin(kRouted), std::end(kRouted), inst.kind) ==
      std::end(kRouted))
    return core::SolvePath::kParallel;
  // All four families share the floor of 8 workers.
  static_assert(core::kGlwsMinWorkers == 8 && core::kLisMinWorkers == 8 &&
                core::kGapMinWorkers == 8);
  return workers >= 8 && work_of(inst) >= cutoff_of(inst.kind)
             ? core::SolvePath::kParallel
             : core::SolvePath::kSequentialCutoff;
}

// Routed-family instances whose work measure is exactly `work`.
engine::Instance sized_instance(const std::string& key, std::size_t work,
                                std::uint64_t seed) {
  const engine::Solver& solver = engine::builtin_registry().at(key);
  if (key == "glws" || key == "lis") return solver.generate({work, 5, seed});
  if (key == "lcs") {
    // a = 0..work-1 against a shuffle of it: one match pair per symbol.
    engine::LcsInstance p;
    p.a.resize(work);
    for (std::uint32_t i = 0; i < work; ++i) p.a[i] = i;
    p.b = p.a;
    for (std::size_t i = work; i > 1; --i)
      std::swap(p.b[i - 1], p.b[cp::uniform(seed, i, i)]);
    return {"lcs", p};
  }
  // gap: the squarest (|a| + 1) x (|b| + 1) grid of `work` cells, cut
  // from a generated instance whose b (3/4 of its a) is long enough.
  std::size_t rows = 1;
  for (std::size_t r = 1; r * r <= work; ++r)
    if (work % r == 0) rows = r;
  engine::Instance inst = solver.generate({2 * (work / rows), 5, seed});
  auto& p = std::get<engine::GapInstance>(inst.payload);
  p.a.resize(work / rows - 1);
  p.b.resize(rows - 1);
  return inst;
}

// The sweep's generated instances, seeds 1-3 of every family, with
// their reference objectives, solved once per process.
struct Generated {
  std::string what;
  engine::Instance inst;
  double ref;
};

const std::vector<Generated>& generated() {
  static const std::vector<Generated> cases = [] {
    std::vector<Generated> out;
    for (const auto& solver : engine::builtin_registry().solvers()) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        engine::Instance inst =
            solver->generate({93 + 90 * seed, 5, seed * 77});
        const double ref = solver->solve_reference(inst).objective;
        out.push_back({std::string(solver->key()) +
                           " seed=" + std::to_string(seed),
                       std::move(inst), ref});
      }
    }
    return out;
  }();
  return cases;
}

}  // namespace

TEST(ThreadSweep, AllFamiliesMatchReferenceAtEveryPoolSize) {
  ASSERT_EQ(engine::builtin_registry().size(), 9u);
  // Work counts at the first pool size, per (instance, route); every
  // later pool size that takes the same route must reproduce them.
  std::map<std::pair<std::string, core::SolvePath>, core::DpStats> first;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    restart_pool(workers);
    for (const Generated& g : generated()) {
      const engine::Solver& solver = engine::builtin_registry().at(g.inst.kind);
      engine::SolveResult fast = solver.solve(g.inst);
      const std::string what = g.what + " workers=" + std::to_string(workers);
      expect_same_objective(fast.objective, g.ref, what);
      EXPECT_EQ(fast.path, production_path(g.inst, workers)) << what;
      auto [it, inserted] = first.try_emplace({g.what, fast.path}, fast.stats);
      if (!inserted) expect_same_counts(fast.stats, it->second, what);
    }
  }
}

TEST(ThreadSweep, ParallelBodiesMatchReferenceAtEveryPoolSize) {
  // Production routes these instances sequentially below 8 workers (and
  // most of them at 8, being under the size cutoffs), so call the
  // paper's rounds directly: every pool size, and three repeats at 8
  // workers, match the oracle and repeat the first solve's work counts
  // exactly.
  struct Case {
    const Generated& g;
    Bodies bodies;
    core::DpStats first;
  };
  std::vector<Case> cases;
  for (const Generated& g : generated())
    if (std::find(std::begin(kRouted), std::end(kRouted), g.inst.kind) !=
        std::end(kRouted))
      cases.push_back({g, bodies_of(g.inst), {}});
  ASSERT_EQ(cases.size(), 12u);
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    restart_pool(workers);
    for (Case& c : cases) {
      for (int rep = 0; rep < (workers == 8 ? 3 : 1); ++rep) {
        const Solved got = c.bodies.parallel();
        const std::string what = c.g.what + " workers=" +
                                 std::to_string(workers) +
                                 " rep=" + std::to_string(rep);
        expect_same_objective(got.objective, c.g.ref, what);
        if (workers == 1 && rep == 0)
          c.first = got.stats;
        else
          expect_same_counts(got.stats, c.first, what);
      }
    }
  }
}

TEST(ThreadSweep, RepeatedParallelSolvesAreDeterministic) {
  restart_pool(8);
  const auto& reg = engine::builtin_registry();
  for (const auto& solver : reg.solvers()) {
    engine::Instance inst = solver->generate({257, 6, 99});
    engine::SolveResult first = solver->solve(inst);
    for (int rep = 0; rep < 3; ++rep) {
      engine::SolveResult again = solver->solve(inst);
      // Exact equality: scheduling order must not leak into answers
      // (atomic min-CAS relaxation is order-independent by design) or
      // into the work counts.
      EXPECT_EQ(first.objective, again.objective)
          << solver->key() << " rep=" << rep;
      EXPECT_EQ(first.path, again.path) << solver->key() << " rep=" << rep;
      expect_same_counts(again.stats, first.stats,
                         std::string(solver->key()) +
                             " rep=" + std::to_string(rep));
    }
  }
}

TEST(ThreadSweep, CutoffStraddleBothSidesOfThreshold) {
  // At 8 workers (the floor of all four families) the size cutoff alone
  // decides: one unit of work below it routes to the sequential
  // algorithm and bumps kSolverSeqCutoffs; exactly at it runs the
  // parallel rounds.  Both sides match the oracle.
  restart_pool(8);
  const auto& reg = engine::builtin_registry();
  for (const char* key : kRouted) {
    const engine::Solver& solver = reg.at(key);
    const std::size_t cutoff = cutoff_of(key);
    for (std::size_t work : {cutoff - 1, cutoff}) {
      engine::Instance inst = sized_instance(key, work, 23);
      const std::string what =
          std::string(key) + " work=" + std::to_string(work);
      ASSERT_EQ(work_of(inst), work) << what;
      const bool seq = work < cutoff;
      auto base = telemetry::snapshot();
      engine::SolveResult fast = solver.solve(inst);
      EXPECT_EQ(counter_since(base, telemetry::Counter::kSolverSeqCutoffs),
                seq ? 1u : 0u)
          << what;
      EXPECT_EQ(fast.path, seq ? core::SolvePath::kSequentialCutoff
                               : core::SolvePath::kParallel)
          << what;
      expect_same_objective(fast.objective,
                            solver.solve_reference(inst).objective, what);
    }
  }
}

TEST(ThreadSweep, WorkerFloorRoutesSequentiallyBelowEight) {
  // Below the 8-worker floors every routed family runs its sequential
  // algorithm, however large the instance, and says so in telemetry.
  const auto& reg = engine::builtin_registry();
  for (std::size_t workers : {1u, 2u, 4u}) {
    restart_pool(workers);
    for (const char* key : kRouted) {
      const engine::Solver& solver = reg.at(key);
      const std::size_t cutoff = cutoff_of(key);
      for (std::size_t work : {cutoff, 2 * cutoff}) {
        engine::Instance inst = sized_instance(key, work, 29);
        const std::string what = std::string(key) + " workers=" +
                                 std::to_string(workers) +
                                 " work=" + std::to_string(work);
        auto base = telemetry::snapshot();
        engine::SolveResult fast = solver.solve(inst);
        EXPECT_EQ(fast.path, core::SolvePath::kSequentialCutoff) << what;
        EXPECT_EQ(counter_since(base, telemetry::Counter::kSolverSeqCutoffs),
                  1u)
            << what;
        expect_same_objective(fast.objective,
                              bodies_of(inst).sequential().objective, what);
      }
    }
  }
}

namespace {

// Three stacked decreasing runs of `run` keys, each above the last:
// three rounds of `run` keys each, so no round is light enough to fuse.
std::vector<std::uint64_t> stacked_runs(std::uint64_t run) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t r = 0; r < 3; ++r)
    for (std::uint64_t k = run; k > 0; --k) v.push_back(r * run + k);
  return v;
}

// A post-office glws instance: `n` villages at random gaps.
Bodies post_office(std::size_t n, double open_cost) {
  auto x = std::make_shared<std::vector<double>>(n + 1, 0.0);
  for (std::size_t i = 1; i <= n; ++i)
    (*x)[i] = (*x)[i - 1] + 0.5 + cp::uniform_double(7, i);
  return glws_bodies(n, 0.0, glws::post_office_cost(x, open_cost),
                     glws::Shape::kConvex);
}

}  // namespace

TEST(ThreadSweep, RoundFusionDoesNotChangeAnswers) {
  // Fusion runs a round inline when the previous one did fewer than
  // kFuseRelax relaxations.  Per body, one case must fuse a round and
  // one must fork a round after the first; every case's answer equals
  // the sequential algorithm's, and its counts and fused rounds at 8
  // workers equal those at 1.
  const auto& reg = engine::builtin_registry();
  // lcs's j stream runs in (i asc, j desc) order, so a = {0, 1, 2}
  // against b = 5000 zeros, then ones, then twos stacks three
  // decreasing runs of 5000 positions.
  std::vector<std::uint32_t> runs_b;
  for (std::uint32_t s = 0; s < 3; ++s) runs_b.insert(runs_b.end(), 5000, s);
  struct Case {
    std::string family, name;
    Bodies bodies;
  };
  const std::vector<Case> cases{
      // Many light rounds: every round after the first fuses.
      {"glws", "post-office n=3000 open=20", post_office(3000, 20.0)},
      // Heavy early rounds fork, the light tail fuses.
      {"glws", "post-office n=16384 open=1e4", post_office(16384, 1e4)},
      {"lis", "generated n=400",
       bodies_of(reg.at("lis").generate({400, 7, 31}))},
      {"lis", "stacked runs", lis_bodies(stacked_runs(5000))},
      {"lcs", "generated n=400",
       bodies_of(reg.at("lcs").generate({400, 7, 31}))},
      {"lcs", "stacked runs", lcs_bodies({0, 1, 2}, runs_b)},
      {"gap", "generated n=100",
       bodies_of(reg.at("gap").generate({100, 7, 31}))},
  };
  std::map<std::string, bool> fuses, forks_late;
  for (const Case& c : cases) {
    const std::string what = c.family + " " + c.name;
    const Solved seq = c.bodies.sequential();
    Solved at1;
    std::uint64_t fused1 = 0;
    for (std::size_t workers : {1u, 8u}) {
      restart_pool(workers);
      auto base = telemetry::snapshot();
      const Solved got = c.bodies.parallel();
      const std::uint64_t fused =
          counter_since(base, telemetry::Counter::kSolverFusedRounds);
      const std::string at = what + " workers=" + std::to_string(workers);
      ASSERT_GT(got.stats.rounds, 1u) << at;
      expect_same_objective(got.objective, seq.objective, at);
      if (workers == 1) {
        at1 = got;
        fused1 = fused;
        continue;
      }
      expect_same_counts(got.stats, at1.stats, at);
      EXPECT_EQ(fused, fused1) << at;
      fuses[c.family] = fuses[c.family] || fused >= 1;
      forks_late[c.family] =
          forks_late[c.family] || fused + 1 < got.stats.rounds;
    }
  }
  for (const char* family : kRouted) {
    EXPECT_TRUE(fuses[family]) << family << ": no case fused a round";
    EXPECT_TRUE(forks_late[family])
        << family << ": no case forked a round after the first";
  }
}

namespace {

// Every (i, j) with a[i] == b[j], i ascending, j descending within an
// i: the emission order, spelled out as two nested loops.
lcs::MatchPairsSoA naive_pairs(const std::vector<std::uint32_t>& a,
                               const std::vector<std::uint32_t>& b) {
  lcs::MatchPairsSoA out;
  for (std::uint32_t i = 0; i < a.size(); ++i)
    for (auto j = static_cast<std::uint32_t>(b.size()); j > 0; --j)
      if (a[i] == b[j - 1]) {
        out.i.push_back(i);
        out.j.push_back(j - 1);
      }
  return out;
}

}  // namespace

TEST(ThreadSweep, MatchPairEmissionIsIdenticalAtEveryPoolSize) {
  // The emitter writes each block of kEmitBlock symbols of `a` at its
  // offset, so at every pool size its three forms must equal the nested
  // loops' pairs, in their order, and the lcs solve built on them must
  // repeat its answer, counts and detail.
  const std::size_t n = 3 * lcs::kEmitBlock + 777;  // and a ragged block
  std::vector<std::uint32_t> random_a(n), random_b(1000), heavy_a(n),
      heavy_b(1000, 7);
  // Symbols 600-699 of random_a never occur in random_b.
  for (std::size_t i = 0; i < n; ++i)
    random_a[i] = static_cast<std::uint32_t>(cp::uniform(11, i, 700));
  for (std::size_t j = 0; j < random_b.size(); ++j)
    random_b[j] = static_cast<std::uint32_t>(cp::uniform(12, j, 600));
  // One symbol fills b.  Block 1 of heavy_a holds it 256 times and the
  // ragged last block once, so block 1 carries nearly every pair.
  for (std::size_t i = 0; i < n; ++i)
    heavy_a[i] = static_cast<std::uint32_t>(8 + i % 50);
  for (std::size_t i = lcs::kEmitBlock; i < 2 * lcs::kEmitBlock; i += 16)
    heavy_a[i] = 7;
  heavy_a[n - 1] = 7;
  struct Input {
    std::string name;
    engine::LcsInstance p;
    lcs::MatchPairsSoA want;
    engine::SolveResult first;
  };
  std::vector<Input> inputs{{"random", {random_a, random_b}, {}, {}},
                            {"one symbol fills b", {heavy_a, heavy_b}, {}, {}},
                            {"empty a", {{}, random_b}, {}, {}},
                            {"empty b", {random_a, {}}, {}, {}}};
  for (Input& in : inputs) in.want = naive_pairs(in.p.a, in.p.b);
  ASSERT_EQ(inputs[1].want.size(), 257000u);
  const engine::Solver& solver = engine::builtin_registry().at("lcs");
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    restart_pool(workers);
    for (Input& in : inputs) {
      const std::string what =
          in.name + " workers=" + std::to_string(workers);
      const auto aos = lcs::match_pairs(in.p.a, in.p.b);
      ASSERT_EQ(aos.size(), in.want.size()) << what;
      for (std::size_t q = 0; q < aos.size(); ++q)
        ASSERT_TRUE(aos[q].i == in.want.i[q] && aos[q].j == in.want.j[q])
            << what << " pair " << q;
      const lcs::MatchPairsSoA soa = lcs::match_pairs_soa(in.p.a, in.p.b);
      EXPECT_EQ(soa.i, in.want.i) << what;
      EXPECT_EQ(soa.j, in.want.j) << what;
      EXPECT_EQ(lcs::match_pairs_j(in.p.a, in.p.b), in.want.j) << what;

      const engine::Instance inst{"lcs", in.p};
      engine::SolveResult got = solver.solve(inst);
      EXPECT_EQ(got.path, production_path(inst, workers)) << what;
      EXPECT_EQ(got.stats.states, in.want.size()) << what;
      if (workers == 1) {
        expect_same_objective(got.objective,
                              solver.solve_reference(inst).objective, what);
        in.first = std::move(got);
        continue;
      }
      EXPECT_EQ(got.objective, in.first.objective) << what;
      EXPECT_EQ(got.stats.states, in.first.stats.states) << what;
      EXPECT_EQ(got.stats.relaxations, in.first.stats.relaxations) << what;
      EXPECT_EQ(got.detail, in.first.detail) << what;
    }
  }
}

namespace {

using Parents = std::vector<std::uint32_t>;
constexpr std::uint32_t kRoot = structures::kNoNode;

// Random recursive tree: each node hangs off a uniform earlier node.
Parents random_parents(std::size_t n, std::uint64_t seed) {
  Parents p(n, kRoot);
  for (std::uint32_t v = 1; v < n; ++v)
    p[v] = static_cast<std::uint32_t>(cp::uniform(seed, v, v));
  return p;
}

// The same tree numbered backwards, so every parent follows its children.
Parents reversed(const Parents& p) {
  const auto n = static_cast<std::uint32_t>(p.size());
  Parents q(n, kRoot);
  for (std::uint32_t v = 0; v < n; ++v)
    q[n - 1 - v] = p[v] == kRoot ? kRoot : n - 1 - p[v];
  return q;
}

// Subtree sizes counted without RootedTree's passes: deepest nodes first.
std::vector<std::uint32_t> naive_sizes(const structures::RootedTree& t) {
  std::vector<std::uint32_t> order(t.size());
  for (std::uint32_t v = 0; v < t.size(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return t.depth[a] > t.depth[b];
  });
  std::vector<std::uint32_t> size(t.size(), 1);
  for (std::uint32_t v : order)
    if (t.parent[v] != kRoot) size[t.parent[v]] += size[v];
  return size;
}

// A fork point: two or more children of at least kForkGrain nodes.
bool has_fork_point(const structures::RootedTree& t,
                    const std::vector<std::uint32_t>& size) {
  for (std::uint32_t v = 0; v < t.size(); ++v) {
    int heavy = 0;
    for (std::uint32_t c : t.children[v])
      heavy += size[c] >= treeglws::kForkGrain ? 1 : 0;
    if (heavy >= 2) return true;
  }
  return false;
}

}  // namespace

TEST(ThreadSweep, TreeGlwsParallelMatchesNaiveAtEveryPoolSize) {
  // No production route runs the paper's rounds with persistent
  // envelopes, so sweep them directly: every pool size matches the
  // ancestor-scan oracle and repeats the first size's work counts.
  namespace glws = cordon::glws;
  const glws::CostFn w = glws::SpanCost{glws::SpanCost::Kind::kQuadratic,
                                        40.0, 0.5};
  const glws::EFn e = glws::identity_e();
  struct Shape {
    std::string name;
    Parents parents;
  };
  Parents binary(1023, kRoot), path(400, kRoot);
  for (std::uint32_t v = 1; v < binary.size(); ++v) binary[v] = (v - 1) / 2;
  for (std::uint32_t v = 1; v < path.size(); ++v) path[v] = v - 1;
  const std::vector<Shape> shapes{{"random1", random_parents(1000, 1)},
                                  {"random2", random_parents(3000, 2)},
                                  {"binary", binary},
                                  {"path", path}};
  std::map<std::string, core::DpStats> first;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    restart_pool(workers);
    for (const Shape& s : shapes) {
      structures::RootedTree t(s.parents);
      const treeglws::TreeGlwsResult ref =
          treeglws::tree_glws_naive(t, 0, w, e);
      for (int rep = 0; rep < 2; ++rep) {
        const treeglws::TreeGlwsResult got =
            treeglws::tree_glws_parallel(t, 0, w, e);
        const std::string what = s.name + " workers=" +
                                 std::to_string(workers) +
                                 " rep=" + std::to_string(rep);
        ASSERT_EQ(got.d.size(), ref.d.size()) << what;
        for (std::size_t v = 0; v < t.size(); ++v)
          ASSERT_NEAR(got.d[v], ref.d[v], 1e-9 * (1.0 + std::abs(ref.d[v])))
              << what << " v=" << v;
        auto [it, inserted] = first.try_emplace(s.name, got.stats);
        if (!inserted) expect_same_counts(got.stats, it->second, what);
      }
    }
  }
}

TEST(ThreadSweep, TreeGlwsForkedDfsMatchesSequentialAtEveryPoolSize) {
  // The production DFS forks at heavy subtrees; every node still reads
  // exactly its root path's decisions, so D, best and the work counts
  // equal the one-thread DFS's bit for bit, whatever ran in parallel.
  namespace glws = cordon::glws;
  const glws::CostFn w = glws::SpanCost{glws::SpanCost::Kind::kQuadratic,
                                        500.0, 0.05};
  const glws::EFn e = glws::identity_e();
  const std::size_t n = 50000;
  Parents binary(n, kRoot), caterpillar(n, kRoot), spine(n, kRoot),
      path(n, kRoot), star(n, kRoot);
  for (std::uint32_t v = 1; v < n; ++v) {
    binary[v] = (v - 1) / 2;
    path[v] = v - 1;
    star[v] = 0;
    // A path of n / 2 nodes, each with one leaf.
    caterpillar[v] = v < n / 2 ? v - 1 : v - n / 2;
  }
  // A spine of 8 nodes, each heading a path of n / 8 nodes: every spine
  // node but the last is a fork point, each nested in the one above.
  const std::uint32_t block = n / 8;
  for (std::uint32_t v = 1; v < n; ++v)
    spine[v] = v % block == 0 ? v - block : v - 1;
  struct Shape {
    std::string name;
    Parents parents;
  };
  const std::vector<Shape> shapes{
      {"random", random_parents(n, 3)}, {"binary", binary},
      {"caterpillar", caterpillar},     {"spine", spine},
      {"path", path},                   {"star", star},
      {"reversed-random", reversed(random_parents(n, 5))}};
  std::vector<structures::RootedTree> trees;
  std::vector<treeglws::TreeGlwsResult> want;
  std::vector<bool> forks;
  for (const Shape& s : shapes) {
    // Both numberings: RootedTree sums sizes by ids when parents come
    // first and by depths otherwise.
    for (const Parents& p : {s.parents, reversed(s.parents)}) {
      structures::RootedTree t(p);
      EXPECT_EQ(t.subtree_size, naive_sizes(t)) << s.name;
    }
    trees.emplace_back(s.parents);
    forks.push_back(has_fork_point(trees.back(), trees.back().subtree_size));
    want.push_back(treeglws::tree_glws_sequential(trees.back(), 0, w, e));
  }
  // Fork points exist exactly where the shape promises.
  EXPECT_EQ(forks, (std::vector<bool>{true, true, false, true, false, false,
                                      true}));
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    restart_pool(workers);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const std::string what =
          shapes[i].name + " workers=" + std::to_string(workers);
      auto base = telemetry::snapshot();
      const treeglws::TreeGlwsResult got =
          treeglws::tree_glws_auto(trees[i], 0, w, e);
      EXPECT_EQ(got.d, want[i].d) << what;
      EXPECT_EQ(got.best, want[i].best) << what;
      expect_same_counts(got.stats, want[i].stats, what);
      const bool parallel = workers >= 2 && forks[i];
      EXPECT_EQ(got.path, parallel ? core::SolvePath::kParallel
                                   : core::SolvePath::kSequentialCutoff)
          << what;
      EXPECT_EQ(telemetry::snapshot().delta_since(base).counter(
                    telemetry::Counter::kSolverSeqCutoffs),
                parallel ? 0u : 1u)
          << what;
    }
  }
}

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  int rc = RUN_ALL_TESTS();
  // Leave no pool behind: workers joined before static teardown.
  cordon::parallel::detail::shutdown_pool();
  return rc;
}
