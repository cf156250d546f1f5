// Unified engine: registry completeness, randomized cross-validation of
// every registered solver against its naive oracle (DpDag::evaluate /
// ExplicitCordon semantics), instance serialization round-trips, and the
// batch executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cordon.hpp"
#include "src/engine/batch_executor.hpp"
#include "src/engine/delta.hpp"
#include "src/engine/instance.hpp"
#include "src/engine/registry.hpp"
#include "src/lcs/lcs.hpp"
#include "src/lis/lis.hpp"
#include "src/parallel/scheduler.hpp"
#include "test_util.hpp"

namespace ce = cordon::engine;
using cordon::testing::expect_objective_near;

namespace {

const std::vector<std::string> kAllKinds = {"glws", "kglws", "lis",
                                            "lcs",  "gap",   "oat",
                                            "obst", "treeglws", "dag"};

}  // namespace

// --- registry ---------------------------------------------------------------

TEST(Registry, AllNineFamiliesRegistered) {
  const auto& reg = ce::builtin_registry();
  EXPECT_EQ(reg.size(), kAllKinds.size());
  for (const std::string& kind : kAllKinds) {
    const ce::Solver* s = reg.find(kind);
    ASSERT_NE(s, nullptr) << kind;
    EXPECT_EQ(s->key(), kind);
    EXPECT_FALSE(s->description().empty());
  }
}

TEST(Registry, UnknownKeyThrows) {
  const auto& reg = ce::builtin_registry();
  EXPECT_EQ(reg.find("no-such-problem"), nullptr);
  EXPECT_THROW((void)reg.at("no-such-problem"), std::out_of_range);
}

TEST(Registry, DuplicateKeyRejected) {
  // Re-registering a family into a registry that already has it throws.
  ce::ProblemRegistry reg;
  ce::register_lis(reg);
  EXPECT_THROW(ce::register_lis(reg), std::invalid_argument);
}

// --- cross-validation against the oracles -----------------------------------

struct EngineCase {
  std::string kind;
  std::uint64_t n;
  std::uint64_t seed;
};

class SolverSweep : public ::testing::TestWithParam<EngineCase> {};

TEST_P(SolverSweep, OptimizedMatchesOracle) {
  auto [kind, n, seed] = GetParam();
  const ce::Solver& solver = ce::builtin_registry().at(kind);
  ce::Instance inst = solver.generate({n, /*k=*/4, seed});
  EXPECT_EQ(inst.kind, kind);

  ce::SolveResult fast = solver.solve(inst);
  ce::SolveResult ref = solver.solve_reference(inst);
  expect_objective_near(fast.objective, ref.objective,
                        kind + " n=" + std::to_string(n) +
                            " seed=" + std::to_string(seed));
  EXPECT_FALSE(fast.detail.empty());
}

TEST_P(SolverSweep, SerializationRoundTripsExactly) {
  auto [kind, n, seed] = GetParam();
  const ce::Solver& solver = ce::builtin_registry().at(kind);
  ce::Instance inst = solver.generate({n, /*k=*/4, seed});

  std::string text = ce::to_string(inst);
  ce::Instance back = ce::from_string(text);
  EXPECT_EQ(back.kind, inst.kind);
  // Byte-identical re-serialization: parse loses nothing.
  EXPECT_EQ(ce::to_string(back), text);
  // And the parsed instance solves to the same objective.
  expect_objective_near(solver.solve(back).objective,
                        solver.solve(inst).objective, kind + " round-trip");
}

TEST_P(SolverSweep, ByteKeyStableAcrossRoundTrip) {
  auto [kind, n, seed] = GetParam();
  const ce::Solver& solver = ce::builtin_registry().at(kind);
  ce::Instance inst = solver.generate({n, /*k=*/4, seed});

  ce::InstanceKey key = ce::canonical_key(inst);
  EXPECT_EQ(key.hash, ce::key_hash(key.text));
  // A request re-sent through its wire text keys the same.
  EXPECT_EQ(ce::canonical_key(ce::from_string(ce::to_string(inst))), key)
      << kind << " round-trip";
  // Keying into a buffer that held a longer key gives the same key.
  ce::InstanceKey reused = ce::canonical_key(solver.generate({2 * n, 4, seed}));
  ce::canonical_key_into(inst, reused);
  EXPECT_EQ(reused, key) << kind << " reused buffer";
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SolverSweep, ::testing::ValuesIn([] {
      std::vector<EngineCase> cases;
      for (const std::string& kind : kAllKinds)
        for (std::uint64_t seed : {1ull, 2ull, 3ull})
          cases.push_back({kind, 40 + 13 * seed, seed});
      return cases;
    }()),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return info.param.kind + "_s" + std::to_string(info.param.seed);
    });

// --- per-family semantics through the uniform interface ---------------------

TEST(Engine, DepthReportersAreConsistent) {
  // lis and lcs certify their effective depth as the subsequence length
  // (Thms 3.1/3.2) on either route, and their parallel bodies run exactly
  // that many rounds; kglws's rounds are its depth.  The dag solver
  // computes d^(G) exactly and rounds can only be bounded by it from
  // below... (rounds <= depth for successful-relaxation sentinels, and
  // >= 1).
  const auto& reg = ce::builtin_registry();
  for (const char* kind : {"lis", "lcs"}) {
    ce::Instance inst = reg.at(kind).generate({120, 6, 9});
    ce::SolveResult r = reg.at(kind).solve(inst);
    EXPECT_GE(r.effective_depth, 1u) << kind;
    EXPECT_EQ(static_cast<double>(r.effective_depth), r.objective) << kind;
    // The instance is under kLisSeqCutoff, so solve() ran the sequential
    // algorithm; run the rounds directly.
    EXPECT_EQ(r.path, cordon::core::SolvePath::kSequentialCutoff) << kind;
    std::uint64_t rounds = 0, length = 0;
    if (inst.kind == "lis") {
      auto par = cordon::lis::lis_parallel(inst.as<ce::LisInstance>().values);
      rounds = par.stats.rounds;
      length = par.length;
    } else {
      const auto& p = inst.as<ce::LcsInstance>();
      auto par =
          cordon::lcs::lcs_parallel(cordon::lcs::match_pairs_soa(p.a, p.b));
      rounds = par.stats.rounds;
      length = par.length;
    }
    EXPECT_EQ(length, r.effective_depth) << kind;
    EXPECT_EQ(rounds, length) << kind;
  }
  ce::Instance kglws = reg.at("kglws").generate({120, 6, 9});
  ce::SolveResult k = reg.at("kglws").solve(kglws);
  EXPECT_EQ(k.effective_depth, k.stats.rounds);
  ce::Instance dag = reg.at("dag").generate({120, 6, 9});
  ce::SolveResult r = reg.at("dag").solve(dag);
  EXPECT_GE(r.effective_depth, 1u);
  EXPECT_LE(r.stats.rounds, r.effective_depth);
}

TEST(Engine, KglwsRejectsConcaveCost) {
  ce::KglwsInstance p;
  p.n = 10;
  p.k = 2;
  p.cost.family = ce::CostSpec::Family::kLogarithmic;
  ce::Instance inst{"kglws", p};
  EXPECT_THROW((void)ce::builtin_registry().at("kglws").solve(inst),
               std::invalid_argument);
}

TEST(Engine, PayloadKindMismatchThrows) {
  ce::Instance inst{"lis", ce::ObstInstance{{1.0, 2.0}}};
  EXPECT_THROW((void)ce::builtin_registry().at("lis").solve(inst),
               std::invalid_argument);
}

TEST(Engine, DagBoundaryOnInnerStateMatchesOracle) {
  // A boundary value on a state that also has in-edges must enter the
  // cordon's initial tentative values exactly as evaluate() sees it
  // (regression: ExplicitCordon used to recover boundaries only for
  // in-degree-0 states, yielding 10 instead of min(5, 0+10) = 5 here).
  ce::Instance inst = ce::from_string(
      "cordon-instance v1 dag\n"
      "states 2\n"
      "boundary 0 0\n"
      "boundary 1 5\n"
      "edge 0 1 10\n"
      "end\n");
  const ce::Solver& dag = ce::builtin_registry().at("dag");
  ce::SolveResult fast = dag.solve(inst);
  ce::SolveResult ref = dag.solve_reference(inst);
  EXPECT_DOUBLE_EQ(ref.objective, 5.0);
  EXPECT_DOUBLE_EQ(fast.objective, ref.objective);
}

TEST(Engine, TreeGlwsRejectsMalformedTrees) {
  // Parent arrays that parse but are not one rooted tree: a parent out
  // of range, no root (a cycle), and two roots.
  const ce::Solver& solver = ce::builtin_registry().at("treeglws");
  for (const char* parents :
       {"4294967295 0 1 900000", "1 0 0", "4294967295 4294967295 0"}) {
    SCOPED_TRACE(parents);
    ce::Instance inst = ce::from_string(
        std::string("cordon-instance v1 treeglws\nparent ") + parents +
        "\nd0 0\ncost affine 1 1\nend\n");
    EXPECT_THROW((void)solver.solve(inst), std::invalid_argument);
    EXPECT_THROW((void)solver.solve_reference(inst), std::invalid_argument);
  }
}

TEST(Engine, CostSpecRejectsNegativeOrNonFiniteScale) {
  // A negative scale flips the Monge shape against the one shape()
  // reports, so the solvers would return wrong optima: every span-cost
  // family rejects it, from a parsed instance and from the API alike.
  const char* parsed[] = {
      "cordon-instance v1 glws\nn 200\nd0 0\ncost logarithmic 5 -3\nend\n",
      "cordon-instance v1 glws\nn 50\nd0 0\ncost affine 1 -0.5\nend\n",
      "cordon-instance v1 kglws\nn 50\nk 3\ncost quadratic 1 -2\nend\n",
      "cordon-instance v1 gap\na 1 2 3\nb 2 3\nw1 logarithmic 1 2\n"
      "w2 logarithmic 1 -2\nend\n",
      "cordon-instance v1 treeglws\nparent 4294967295 0 1\nd0 0\n"
      "cost affine 1 -1\nend\n",
  };
  for (const char* text : parsed) {
    SCOPED_TRACE(text);
    std::istringstream in(text);
    ce::Instance inst = ce::parse_instance(in);
    const ce::Solver& solver = ce::builtin_registry().at(inst.kind);
    EXPECT_THROW((void)solver.solve(inst), std::invalid_argument);
    EXPECT_THROW((void)solver.solve_reference(inst), std::invalid_argument);
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (auto [open, scale] : {std::pair{1.0, -1e-300}, std::pair{1.0, inf},
                             std::pair{1.0, nan}, std::pair{inf, 1.0},
                             std::pair{nan, 1.0}}) {
    ce::GlwsInstance p{.n = 20, .cost = {.open = open, .scale = scale}};
    EXPECT_THROW((void)p.cost.make(), std::invalid_argument);
    EXPECT_THROW((void)ce::builtin_registry().at("glws").solve({"glws", p}),
                 std::invalid_argument);
  }
  // Zero scale (open cost only) stays legal.
  ce::CostSpec flat{.family = ce::CostSpec::Family::kLogarithmic, .open = 2,
                    .scale = 0};
  EXPECT_EQ(flat.make()(0, 9), 2.0);
}

TEST(Engine, DagInstanceValidation) {
  ce::DagInstance p;
  p.n = 3;
  p.boundary.emplace_back(0, 0.0);
  p.edges.push_back({2, 1, 1.0, true});  // src >= dst
  EXPECT_THROW((void)ce::builtin_registry().at("dag").solve({"dag", p}),
               std::invalid_argument);
}

// --- parse errors -----------------------------------------------------------

TEST(InstanceFormat, RejectsGarbage) {
  EXPECT_THROW((void)ce::from_string("not an instance\n"), std::runtime_error);
  EXPECT_THROW((void)ce::from_string("cordon-instance v1 martian\nend\n"),
               std::runtime_error);
  EXPECT_THROW((void)ce::from_string("cordon-instance v2 lis\nend\n"),
               std::runtime_error);
  // Missing "end".
  EXPECT_THROW((void)ce::from_string("cordon-instance v1 lis\nvalues 1 2\n"),
               std::runtime_error);
  // Unknown key for the kind.
  EXPECT_THROW(
      (void)ce::from_string("cordon-instance v1 lis\nweights 1\nend\n"),
      std::runtime_error);
  // Unknown cost family.
  EXPECT_THROW((void)ce::from_string(
                   "cordon-instance v1 glws\nn 5\ncost cubic 1 1\nend\n"),
               std::invalid_argument);
  // Malformed optional effective flag must error, not silently default.
  EXPECT_THROW((void)ce::from_string("cordon-instance v1 dag\nstates 2\n"
                                     "edge 0 1 2.0 false\nend\n"),
               std::runtime_error);
}

TEST(InstanceFormat, DeclaredSizeCapsRejectHostilePayloads) {
  // A few bytes of text must not be able to request petabytes: declared
  // sizes are capped at parse time (kMaxDeclaredSize)...
  const std::string huge = std::to_string(ce::kMaxDeclaredSize + 1);
  EXPECT_THROW((void)ce::from_string("cordon-instance v1 glws\nn " + huge +
                                     "\ncost affine 1 1\nend\n"),
               std::invalid_argument);
  EXPECT_THROW((void)ce::from_string("cordon-instance v1 kglws\nn " + huge +
                                     "\nk 2\ncost affine 1 1\nend\n"),
               std::invalid_argument);
  EXPECT_THROW((void)ce::from_string("cordon-instance v1 kglws\nn 10\nk " +
                                     huge + "\ncost affine 1 1\nend\n"),
               std::invalid_argument);
  EXPECT_THROW((void)ce::from_string("cordon-instance v1 dag\nstates " + huge +
                                     "\nend\n"),
               std::invalid_argument);
  // ...values at the cap parse fine (the cap is a ceiling, not a shrink).
  ce::Instance ok = ce::from_string("cordon-instance v1 glws\nn 64\n"
                                    "cost affine 1 1\nend\n");
  EXPECT_EQ(ok.as<ce::GlwsInstance>().n, 64u);
}

TEST(Engine, HostileInMemoryInstancesFailTheSolveNotTheProcess) {
  // Payloads built directly (never parsed) are validated at solve time,
  // so through the service they surface as a failed future, not an OOM.
  const auto& reg = ce::builtin_registry();
  ce::GlwsInstance glws;
  glws.n = ce::kMaxDeclaredSize + 1;
  EXPECT_THROW((void)reg.at("glws").solve({"glws", glws}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.at("glws").solve_reference({"glws", glws}),
               std::invalid_argument);

  ce::KglwsInstance kglws;
  kglws.n = ce::kMaxDeclaredSize + 1;
  kglws.k = 2;
  EXPECT_THROW((void)reg.at("kglws").solve({"kglws", kglws}),
               std::invalid_argument);

  ce::DagInstance dag;
  dag.n = ce::kMaxDeclaredSize + 1;
  EXPECT_THROW((void)reg.at("dag").solve({"dag", dag}), std::invalid_argument);

  // Out-of-range boundary states are caught before DpDag sees them.
  ce::DagInstance bad_boundary;
  bad_boundary.n = 3;
  bad_boundary.boundary.emplace_back(7, 0.0);
  EXPECT_THROW((void)reg.at("dag").solve({"dag", bad_boundary}),
               std::invalid_argument);
}

TEST(InstanceFormat, CommentsBlankLinesAndWrappedVectorsParse) {
  ce::Instance inst = ce::from_string(
      "# a hand-written workload\n"
      "cordon-instance v1 lis\n"
      "\n"
      "values 3 1 4   # first chunk\n"
      "values 1 5\n"
      "end\n");
  const auto& p = inst.as<ce::LisInstance>();
  EXPECT_EQ(p.values, (std::vector<std::uint64_t>{3, 1, 4, 1, 5}));
}

// --- batch executor ---------------------------------------------------------

TEST(BatchExecutor, ParallelMatchesSequentialOnMixedQueue) {
  const auto& reg = ce::builtin_registry();
  std::vector<ce::Instance> queue;
  for (const std::string& kind : kAllKinds)
    for (std::uint64_t seed : {10ull, 20ull})
      queue.push_back(reg.at(kind).generate({50, 3, seed}));

  ce::BatchExecutor exec(reg);
  ce::BatchReport par = exec.run(queue, {.parallel = true});
  ce::BatchReport seq = exec.run(queue, {.parallel = false});

  ASSERT_EQ(par.items.size(), queue.size());
  ASSERT_EQ(seq.items.size(), queue.size());
  EXPECT_EQ(par.failed, 0u);
  EXPECT_EQ(seq.failed, 0u);
  for (std::size_t i = 0; i < queue.size(); ++i) {
    ASSERT_TRUE(par.items[i].ok) << i << ": " << par.items[i].error;
    EXPECT_EQ(par.items[i].kind, queue[i].kind);
    expect_objective_near(par.items[i].result.objective,
                          seq.items[i].result.objective,
                          "batch item " + std::to_string(i));
    EXPECT_GE(par.items[i].latency_s, 0.0);
  }
  EXPECT_EQ(par.stats.requests, queue.size());
  EXPECT_GT(par.stats.total.rounds, 0u);
  EXPECT_GE(par.stats.max_latency_s, par.stats.mean_latency_s());
  EXPECT_GT(par.stats.max_effective_depth, 0u);
}

TEST(BatchExecutor, ReferenceModeUsesOracles) {
  const auto& reg = ce::builtin_registry();
  std::vector<ce::Instance> queue = {reg.at("lis").generate({60, 1, 4}),
                                     reg.at("glws").generate({60, 1, 4})};
  ce::BatchExecutor exec(reg);
  ce::BatchReport fast = exec.run(queue, {.use_reference = false});
  ce::BatchReport ref = exec.run(queue, {.use_reference = true});
  for (std::size_t i = 0; i < queue.size(); ++i)
    expect_objective_near(fast.items[i].result.objective,
                          ref.items[i].result.objective,
                          "reference batch item " + std::to_string(i));
}

TEST(BatchExecutor, UnknownKindFailsTheItemNotTheBatch) {
  const auto& reg = ce::builtin_registry();
  std::vector<ce::Instance> queue = {reg.at("lis").generate({30, 1, 1}),
                                     {"martian", ce::LisInstance{{1, 2}}}};
  ce::BatchReport rep = ce::BatchExecutor(reg).run(queue);
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_TRUE(rep.items[0].ok);
  EXPECT_FALSE(rep.items[1].ok);
  EXPECT_NE(rep.items[1].error.find("martian"), std::string::npos);
  EXPECT_EQ(rep.stats.requests, 1u);  // failures excluded from aggregates
}

// --- satellites exercised through the engine --------------------------------

TEST(ParallelFor, GranularityFloorParameterCoversAllIndices) {
  // A 3-iteration loop with the default floor runs inline; with floor 1
  // it forks.  Either way every index must run exactly once.
  for (std::size_t floor : {1ul, 64ul}) {
    std::vector<int> hits(3, 0);
    cordon::parallel::parallel_for(
        0, hits.size(), [&](std::size_t i) { ++hits[i]; },
        /*granularity=*/1, /*granularity_floor=*/floor);
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 1})) << "floor=" << floor;
  }
}

TEST(ExplicitCordon, WellFormedGeneratedDagsNeverReportStuckStates) {
  // The empty-frontier throw guards an internal invariant; every DAG
  // constructible through the public API must finalize all states.
  const ce::Solver& dag = ce::builtin_registry().at("dag");
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    ce::Instance inst = dag.generate({80, 1, seed});
    EXPECT_NO_THROW((void)dag.solve(inst)) << "seed=" << seed;
  }
}

// --- cache keys -------------------------------------------------------------

namespace {

/// Every non-hostile instance of the committed corpus, then generated
/// instances of all nine families: each twice from one seed, plus
/// near neighbours (another seed, a shorter prefix), so both directions
/// of "equal keys iff equal texts" meet real pairs.
std::vector<ce::Instance> key_sample() {
  std::vector<ce::Instance> out;
  const std::filesystem::path corpus =
      std::filesystem::path(__FILE__).parent_path() / "corpus" / "instance";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(corpus))
    if (entry.path().extension() == ".inst" &&
        !entry.path().filename().string().starts_with("hostile_"))
      files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  EXPECT_GE(files.size(), kAllKinds.size()) << corpus;
  for (const auto& file : files) out.push_back(ce::load_instance(file));
  for (const std::string& kind : kAllKinds) {
    const ce::Solver& solver = ce::builtin_registry().at(kind);
    for (std::uint64_t seed : {5ull, 6ull}) {
      out.push_back(solver.generate({60, 4, seed}));
      out.push_back(solver.generate({60, 4, seed}));
    }
    if (kind != "dag")  // dag has no prefix form (delta.hpp)
      out.push_back(ce::prefix_instance(solver.generate({60, 4, 5}), 59));
  }
  return out;
}

/// A dag whose boundary pairs and edges sit on memory filled with
/// `fill` before their fields are assigned, so only their padding bytes
/// differ between two fills.
ce::Instance dag_over(unsigned char fill) {
  ce::DagInstance d;
  d.n = 3;
  d.boundary.resize(1);
  d.edges.resize(2);
  std::memset(static_cast<void*>(d.boundary.data()), fill,
              d.boundary.size() * sizeof(d.boundary[0]));
  std::memset(static_cast<void*>(d.edges.data()), fill,
              d.edges.size() * sizeof(ce::DagInstance::Edge));
  d.boundary[0].first = 0;
  d.boundary[0].second = 0.5;
  for (std::uint32_t i = 0; i < 2; ++i) {
    d.edges[i].src = i;
    d.edges[i].dst = i + 1;
    d.edges[i].weight = 1.5 * (i + 1);
    d.edges[i].effective = i == 0;
  }
  return {"dag", std::move(d)};
}

}  // namespace

TEST(InstanceKey, EqualIffTextsEqualOverCorpusAndGenerated) {
  std::vector<ce::Instance> sample = key_sample();
  std::vector<std::string> texts;
  std::vector<ce::InstanceKey> keys;
  for (const ce::Instance& inst : sample) {
    texts.push_back(ce::to_string(inst));
    keys.push_back(ce::canonical_key(inst));
  }
  std::size_t equal_pairs = 0, distinct_pairs = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    for (std::size_t j = i + 1; j < sample.size(); ++j) {
      const bool same_text = texts[i] == texts[j];
      EXPECT_EQ(keys[i] == keys[j], same_text)
          << sample[i].kind << " #" << i << " vs " << sample[j].kind << " #"
          << j;
      ++(same_text ? equal_pairs : distinct_pairs);
    }
    EXPECT_EQ(ce::canonical_key(ce::from_string(texts[i])), keys[i])
        << sample[i].kind << " #" << i << " round-trip";
  }
  EXPECT_GE(equal_pairs, 2 * kAllKinds.size());
  EXPECT_GT(distinct_pairs, equal_pairs);
}

TEST(InstanceKey, EdgeRows) {
  // 0.0 against -0.0: the texts differ ("0" / "-0"), so the keys must.
  ce::GlwsInstance pos{100, 0.0, {}}, neg{100, -0.0, {}};
  EXPECT_NE(ce::to_string({"glws", pos}), ce::to_string({"glws", neg}));
  EXPECT_NE(ce::canonical_key({"glws", pos}), ce::canonical_key({"glws", neg}));

  // NaNs that differ only in payload bits: the text merges them, the
  // keys do not (a split costs one cache miss, never a wrong answer).
  const double nan1 = std::bit_cast<double>(0x7ff8000000000001ull);
  const double nan2 = std::bit_cast<double>(0x7ff8000000000002ull);
  ce::Instance n1{"oat", ce::OatInstance{{1.0, nan1}}};
  ce::Instance n2{"oat", ce::OatInstance{{1.0, nan2}}};
  EXPECT_EQ(ce::to_string(n1), ce::to_string(n2));
  EXPECT_NE(ce::canonical_key(n1), ce::canonical_key(n2));

  // oat against obst over the same weights.
  EXPECT_NE(ce::canonical_key({"oat", ce::OatInstance{{1, 2}}}),
            ce::canonical_key({"obst", ce::ObstInstance{{1, 2}}}));

  // lcs a/b split at different points: the length prefixes keep
  // a=[1,2] b=[3] apart from a=[1] b=[2,3].
  EXPECT_NE(ce::canonical_key({"lcs", ce::LcsInstance{{1, 2}, {3}}}),
            ce::canonical_key({"lcs", ce::LcsInstance{{1}, {2, 3}}}));

  // Empty vectors: still length-prefixed, and still round-trip.
  EXPECT_NE(ce::canonical_key({"lcs", ce::LcsInstance{{}, {7}}}),
            ce::canonical_key({"lcs", ce::LcsInstance{{7}, {}}}));
  EXPECT_NE(ce::canonical_key({"lis", ce::LisInstance{}}),
            ce::canonical_key({"lis", ce::LisInstance{{0}}}));
  for (const ce::Instance& empty :
       {ce::Instance{"lis", ce::LisInstance{}},
        ce::Instance{"lcs", ce::LcsInstance{}},
        ce::Instance{"obst", ce::ObstInstance{}},
        ce::Instance{"dag", ce::DagInstance{}}})
    EXPECT_EQ(ce::canonical_key(ce::from_string(ce::to_string(empty))),
              ce::canonical_key(empty))
        << empty.kind;

  // Padding never enters the key: the same dag over 0xFF- and
  // zero-filled memory keys the same.
  ce::Instance ones = dag_over(0xFF), zeros = dag_over(0x00);
  const auto& e1 = ones.as<ce::DagInstance>().edges;
  const auto& e0 = zeros.as<ce::DagInstance>().edges;
  ASSERT_NE(std::memcmp(e1.data(), e0.data(),
                        e1.size() * sizeof(ce::DagInstance::Edge)),
            0)
      << "the two dags must differ in their padding bytes";
  EXPECT_EQ(ce::to_string(ones), ce::to_string(zeros));
  EXPECT_EQ(ce::canonical_key(ones), ce::canonical_key(zeros));
}

TEST(InstanceKey, DistinctInstancesHashApart) {
  // Spot check per family: different seeds (and different kinds) give
  // different hashes.  Collisions are possible only by (2^-64) chance.
  std::set<std::uint64_t> seen;
  std::size_t generated = 0;
  for (const std::string& kind : kAllKinds) {
    const ce::Solver& solver = ce::builtin_registry().at(kind);
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
      seen.insert(ce::canonical_key(solver.generate({50, 4, seed})).hash);
      ++generated;
    }
  }
  EXPECT_EQ(seen.size(), generated);
}

TEST(InstanceKey, HighBitsPickEveryShard) {
  // The cache picks a shard from hash >> 48: instances that differ in
  // one small scalar must still spread over all 16 shards.
  std::vector<int> per_shard(16, 0);
  for (std::uint64_t n = 1; n <= 512; ++n) {
    const ce::InstanceKey key =
        ce::canonical_key({"glws", ce::GlwsInstance{n, 0.0, {}}});
    ++per_shard[(key.hash >> 48) % 16];
  }
  for (int count : per_shard) EXPECT_GE(count, 10);
}

TEST(InstanceKey, SensitiveToEveryField) {
  ce::GlwsInstance base{100, 0.5, {ce::CostSpec::Family::kAffine, 1.0, 2.0}};
  auto key = [](const ce::GlwsInstance& p) {
    return ce::canonical_key({"glws", p});
  };
  const ce::InstanceKey k0 = key(base);

  ce::GlwsInstance m = base;
  m.n = 101;
  EXPECT_NE(key(m), k0);
  m = base;
  m.d0 = 0.25;
  EXPECT_NE(key(m), k0);
  m = base;
  m.cost.open = 1.5;
  EXPECT_NE(key(m), k0);
  m = base;
  m.cost.scale = 2.5;
  EXPECT_NE(key(m), k0);
  m = base;
  m.cost.family = ce::CostSpec::Family::kQuadratic;
  EXPECT_NE(key(m), k0);

  // The kind participates too: identical payload, different name.
  EXPECT_NE(ce::canonical_key({"oat", ce::OatInstance{{1, 2}}}),
            ce::canonical_key({"oat-copy", ce::OatInstance{{1, 2}}}));
}

TEST(InstanceKey, EqualPayloadsKeyEqual) {
  // Two independently constructed but identical payloads key
  // identically (no address/ordering leakage).
  ce::Instance a{"lis", ce::LisInstance{{5, 3, 9, 1}}};
  ce::Instance b{"lis", ce::LisInstance{{5, 3, 9, 1}}};
  EXPECT_EQ(ce::canonical_key(a), ce::canonical_key(b));
}
