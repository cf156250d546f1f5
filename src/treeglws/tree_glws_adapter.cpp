// Engine adapter: Tree-GLWS (Sec. 5.3, Thm 5.3).
#include <cmath>
#include <memory>
#include <stdexcept>

#include "src/engine/adapter_util.hpp"
#include "src/engine/registry.hpp"
#include "src/treeglws/tree_glws.hpp"

namespace cordon::engine {
namespace {

class TreeGlwsSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view key() const override { return "treeglws"; }
  [[nodiscard]] std::string_view description() const override {
    return "GLWS along every root-to-node path of a rooted tree, convex "
           "costs (Sec. 5.3)";
  }

  [[nodiscard]] SolveResult solve(const Instance& inst) const override {
    const auto& p = validate(inst);
    structures::RootedTree t(p.parent);
    auto r = treeglws::tree_glws_auto(t, p.d0, p.cost.make(),
                                      glws::identity_e());
    return pack(p, r);
  }

  [[nodiscard]] SolveResult solve_reference(
      const Instance& inst) const override {
    const auto& p = validate(inst);
    structures::RootedTree t(p.parent);
    auto r =
        treeglws::tree_glws_naive(t, p.d0, p.cost.make(), glws::identity_e());
    return pack(p, r);
  }

  [[nodiscard]] Instance generate(const GenOptions& opt) const override {
    TreeGlwsInstance p;
    p.parent = detail::gen_parents(std::max<std::uint64_t>(1, opt.n), opt.seed);
    p.d0 = 0;
    p.cost = detail::gen_cost(opt.seed, /*convex_only=*/true);
    return {"treeglws", p};
  }

 private:
  // The tree's shape is checked where every tree is built: RootedTree
  // rejects a parent array that is not exactly one rooted tree.
  static const TreeGlwsInstance& validate(const Instance& inst) {
    const auto& p = inst.as<TreeGlwsInstance>();
    if (p.cost.shape() != glws::Shape::kConvex)
      throw std::invalid_argument("treeglws requires a convex cost family");
    return p;
  }

  // Headline scalar: the sum of D over all non-root nodes (every such
  // node has at least one ancestor, so every term is finite).
  static SolveResult pack(const TreeGlwsInstance& p,
                          const treeglws::TreeGlwsResult& r) {
    SolveResult out;
    double sum = 0;
    for (double v : r.d)
      if (std::isfinite(v)) sum += v;
    out.objective = sum;
    out.stats = r.stats;
    out.path = r.path;
    out.detail = "treeglws n=" + std::to_string(p.parent.size()) +
                 " sum(D)=" + std::to_string(sum);
    return out;
  }
};

}  // namespace

void register_treeglws(ProblemRegistry& reg) {
  reg.add(std::make_unique<TreeGlwsSolver>());
}

}  // namespace cordon::engine
