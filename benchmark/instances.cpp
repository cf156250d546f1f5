#include "instances.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/engine/registry.hpp"
#include "src/gap/gap.hpp"
#include "src/glws/glws.hpp"
#include "src/kglws/kglws.hpp"
#include "src/lcs/lcs.hpp"
#include "src/lis/lis.hpp"
#include "src/oat/oat.hpp"
#include "src/obst/obst.hpp"
#include "src/treeglws/tree_glws.hpp"

namespace bench {

namespace engine = cordon::engine;
using engine::CostSpec;

namespace {

/// splitmix64 stream: one independent generator per (seed, index).
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t index)
      : state_(mix(seed ^ mix(index + 0x632be59bd9b4e019ull))) {}

  std::uint64_t next() { return mix(state_ += 0x9e3779b97f4a7c15ull); }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
  std::uint64_t state_;
};

struct Size {
  std::uint64_t n;
  std::uint64_t k;
};

Size size_of(std::string_view family, Scale scale) {
  struct Row {
    std::string_view family;
    Size paper, service, session;
  };
  static constexpr Row kRows[] = {
      {"glws", {1u << 20, 0}, {5000, 0}, {16384, 0}},
      {"lis", {1u << 21, 0}, {4000, 0}, {16384, 0}},
      {"lcs", {1000000, 0}, {2000, 0}, {16384, 0}},
      {"gap", {2048, 0}, {128, 0}, {0, 0}},
      {"oat", {32768, 0}, {1000, 0}, {0, 0}},
      {"obst", {2048, 0}, {200, 0}, {0, 0}},
      {"treeglws", {1u << 20, 0}, {4000, 0}, {0, 0}},
      {"kglws", {1u << 18, 8}, {1000, 8}, {0, 0}},
      {"dag", {200000, 0}, {500, 0}, {0, 0}},
  };
  for (const Row& r : kRows) {
    if (r.family != family) continue;
    Size s = scale == Scale::kPaper     ? r.paper
             : scale == Scale::kService ? r.service
                                        : r.session;
    if (s.n == 0) break;
    return s;
  }
  throw std::invalid_argument("no " + std::string(family) +
                              " instance at this scale");
}

CostSpec cost(CostSpec::Family f, double open, double scale) {
  CostSpec c;
  c.family = f;
  c.open = open;
  c.scale = scale;
  return c;
}

/// A random cost spec for the service mix: affine or quadratic (plus
/// logarithmic when concave costs are allowed), open in [1, 25), scale
/// in [0.05, 2.05) — the ranges of the adapters' generators.
CostSpec random_cost(Rng& rng, bool convex_only) {
  std::uint64_t pick = rng.below(convex_only ? 2 : 3);
  auto f = pick == 0   ? CostSpec::Family::kAffine
           : pick == 1 ? CostSpec::Family::kQuadratic
                       : CostSpec::Family::kLogarithmic;
  double open = 1.0 + rng.unit() * 24.0;
  return cost(f, open, 0.05 + rng.unit() * 2.0);
}

std::vector<std::uint32_t> symbols(Rng& rng, std::uint64_t n,
                                   std::uint64_t alphabet) {
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = static_cast<std::uint32_t>(rng.below(alphabet));
  return v;
}

std::vector<double> weights(Rng& rng, std::uint64_t n, double lo, double hi) {
  std::vector<double> v(n);
  for (auto& x : v) x = lo + rng.unit() * (hi - lo);
  return v;
}

}  // namespace

engine::Instance make_instance(std::string_view family, Scale scale,
                               std::uint64_t seed, std::uint64_t index) {
  const Size sz = size_of(family, scale);
  const std::uint64_t n = sz.n;
  // Paper-scale instances fix their cost functions, so a different seed
  // changes the data but not the amount of work; the service mix draws a
  // fresh cost per request.
  const bool fixed_cost = scale != Scale::kService;
  Rng rng(seed, index * kFamilies.size() +
                    static_cast<std::uint64_t>(
                        std::find(kFamilies.begin(), kFamilies.end(), family) -
                        kFamilies.begin()));
  const std::string kind(family);

  if (family == "glws") {
    engine::GlwsInstance p;
    p.n = n;
    // Sessions need a convex cost to resume from their envelope.
    p.cost = scale == Scale::kService
                 ? random_cost(rng, /*convex_only=*/false)
                 : cost(CostSpec::Family::kQuadratic,
                        scale == Scale::kPaper ? 1e4 : 100.0, 1.0);
    return {kind, p};
  }
  if (family == "lis") {
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) x = rng.below(std::max<std::uint64_t>(2, n / 2));
    return {kind, engine::LisInstance{std::move(v)}};
  }
  if (family == "lcs") {
    // Alphabet n/2: ~2n match pairs, the sparse regime of Thm 3.2.
    std::uint64_t alphabet = std::max<std::uint64_t>(2, n / 2);
    engine::LcsInstance p;
    p.a = symbols(rng, n, alphabet);
    p.b = symbols(rng, n, alphabet);
    return {kind, p};
  }
  if (family == "gap") {
    engine::GapInstance p;
    p.a = symbols(rng, n, 4);
    p.b = symbols(rng, n * 3 / 4, 4);
    p.w1 = fixed_cost ? cost(CostSpec::Family::kAffine, 3.0, 0.5)
                      : random_cost(rng, /*convex_only=*/true);
    p.w2 = fixed_cost ? p.w1 : random_cost(rng, /*convex_only=*/true);
    return {kind, p};
  }
  if (family == "oat")
    return {kind, engine::OatInstance{weights(rng, n, 1.0, 100.0)}};
  if (family == "obst")
    return {kind, engine::ObstInstance{weights(rng, n, 1.0, 50.0)}};
  if (family == "treeglws") {
    engine::TreeGlwsInstance p;
    p.parent.assign(n, 0xffffffffu);
    for (std::uint64_t v = 1; v < n; ++v)
      p.parent[v] = static_cast<std::uint32_t>(rng.below(v));
    p.cost = fixed_cost ? cost(CostSpec::Family::kQuadratic, 10.0, 1.0)
                        : random_cost(rng, /*convex_only=*/true);
    return {kind, p};
  }
  if (family == "kglws") {
    engine::KglwsInstance p;
    p.n = n;
    p.k = sz.k;
    p.cost = fixed_cost ? cost(CostSpec::Family::kQuadratic, 1.0, 1.0)
                        : random_cost(rng, /*convex_only=*/true);
    return {kind, p};
  }
  if (family == "dag") {
    // Layered random min-DAG: every state draws 1-3 in-edges from
    // uniformly random earlier states, so all states are reachable.
    engine::DagInstance p;
    p.n = n;
    p.boundary.emplace_back(0, 0.0);
    p.edges.reserve(2 * n);
    for (std::uint32_t v = 1; v < n; ++v) {
      std::uint64_t in_degree = 1 + rng.below(3);
      for (std::uint64_t c = 0; c < in_degree; ++c)
        p.edges.push_back({static_cast<std::uint32_t>(rng.below(v)), v,
                           rng.unit() * 10.0, true});
    }
    return {kind, p};
  }
  throw std::invalid_argument("unknown family " + kind);
}

FamilyEntry prepare_entry(const engine::Instance& inst) {
  namespace glws = cordon::glws;
  const std::string& kind = inst.kind;
  if (kind == "glws") {
    return [p = inst.as<engine::GlwsInstance>()](bool par) {
      glws::CostFn w = p.cost.make();
      auto r = par ? glws::glws_parallel(p.n, p.d0, w, glws::identity_e(),
                                         p.cost.shape())
                   : glws::glws_sequential(p.n, p.d0, w, glws::identity_e(),
                                           p.cost.shape());
      return LayerResult{r.d.back(), r.stats};
    };
  }
  if (kind == "lis") {
    return [v = inst.as<engine::LisInstance>().values](bool par) {
      auto r = par ? cordon::lis::lis_parallel(v)
                   : cordon::lis::lis_sequential(v);
      return LayerResult{static_cast<double>(r.length), r.stats};
    };
  }
  if (kind == "lcs") {
    const auto& p = inst.as<engine::LcsInstance>();
    return [pairs = cordon::lcs::match_pairs_soa(p.a, p.b)](bool par) {
      auto r = par ? cordon::lcs::lcs_parallel(pairs)
                   : cordon::lcs::lcs_sparse_seq(pairs);
      return LayerResult{static_cast<double>(r.length), r.stats};
    };
  }
  if (kind == "gap") {
    return [p = inst.as<engine::GapInstance>()](bool par) {
      glws::CostFn w1 = p.w1.make(), w2 = p.w2.make();
      auto r = par ? cordon::gap::gap_parallel(p.a, p.b, w1, w2, p.w1.shape())
                   : cordon::gap::gap_seq(p.a, p.b, w1, w2, p.w1.shape());
      return LayerResult{r.distance, r.stats};
    };
  }
  if (kind == "oat") {
    return [w = inst.as<engine::OatInstance>().weights](bool par) {
      auto r = par ? cordon::oat::oat_parallel(w)
                   : cordon::oat::oat_garsia_wachs(w);
      return LayerResult{r.cost, r.stats};
    };
  }
  if (kind == "obst") {
    return [w = inst.as<engine::ObstInstance>().weights](bool par) {
      auto r = par ? cordon::obst::obst_parallel(w)
                   : cordon::obst::obst_knuth(w);
      return LayerResult{r.cost, r.stats};
    };
  }
  if (kind == "treeglws") {
    const auto& p = inst.as<engine::TreeGlwsInstance>();
    return [tree = cordon::structures::RootedTree(p.parent), d0 = p.d0,
            cost = p.cost](bool par) {
      glws::CostFn w = cost.make();
      auto r = par ? cordon::treeglws::tree_glws_parallel(tree, d0, w,
                                                          glws::identity_e())
                   : cordon::treeglws::tree_glws_sequential(
                         tree, d0, w, glws::identity_e());
      // The adapter's objective: the sum of every finite D.
      double sum = 0;
      for (double d : r.d)
        if (std::isfinite(d)) sum += d;
      return LayerResult{sum, r.stats};
    };
  }
  if (kind == "kglws") {
    return [p = inst.as<engine::KglwsInstance>()](bool par) {
      glws::CostFn w = p.cost.make();
      auto r = par ? cordon::kglws::kglws_dc(p.n, p.k, w)
                   : cordon::kglws::kglws_smawk(p.n, p.k, w);
      return LayerResult{r.total, r.stats};
    };
  }
  if (kind == "dag") {
    return [inst, &solver = engine::builtin_registry().at("dag")](bool par) {
      auto r = par ? solver.solve(inst) : solver.solve_reference(inst);
      return LayerResult{r.objective, r.stats};
    };
  }
  throw std::invalid_argument("unknown family " + kind);
}

bool objectives_match(std::string_view family, double got, double want) {
  if (family == "lis" || family == "lcs") return got == want;
  return std::abs(got - want) <= 1e-6 * std::max(1.0, std::abs(want));
}

}  // namespace bench
