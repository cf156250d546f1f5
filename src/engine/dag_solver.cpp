// Engine adapter: explicit DP DAGs solved by ExplicitCordon's frontier
// execution of Steps 1-5 (Sec. 2.3), O(n + E) work — the ninth
// registered family, and the one whose effective depth d^(G) is
// computed exactly rather than inferred from rounds.
#include <memory>
#include <stdexcept>

#include "src/core/cordon.hpp"
#include "src/engine/adapter_util.hpp"
#include "src/engine/registry.hpp"

namespace cordon::engine {
namespace {

class DagSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view key() const override { return "dag"; }
  [[nodiscard]] std::string_view description() const override {
    return "explicit DP DAG with affine transitions, solved by an "
           "O(n+E) frontier execution of the Cordon Algorithm (Sec. 2.3)";
  }

  [[nodiscard]] SolveResult solve(const Instance& inst) const override {
    const auto& p = validate(inst);
    core::DpDag dag = p.build();
    auto r = core::ExplicitCordon(dag).run();
    SolveResult out;
    out.objective = r.values.empty() ? 0.0 : r.values.back();
    out.stats.states = p.n;
    // Edges the frontier read: each state's in-edges once in its
    // sentinel test, plus one push per edge whose source finalized
    // first — at most 2E.
    out.stats.relaxations = r.relaxations;
    out.stats.rounds = r.rounds;
    out.effective_depth = dag.effective_depth();
    out.detail = "dag n=" + std::to_string(p.n) +
                 " E=" + std::to_string(dag.num_edges()) +
                 " D[n-1]=" + std::to_string(out.objective) +
                 " depth=" + std::to_string(out.effective_depth);
    return out;
  }

  [[nodiscard]] SolveResult solve_reference(
      const Instance& inst) const override {
    const auto& p = validate(inst);
    core::DpDag dag = p.build();
    auto values = dag.evaluate();
    SolveResult out;
    out.objective = values.empty() ? 0.0 : values.back();
    out.stats.states = p.n;
    out.stats.relaxations = dag.num_edges();
    out.effective_depth = dag.effective_depth();
    out.detail = "dag n=" + std::to_string(p.n) +
                 " D[n-1]=" + std::to_string(out.objective) +
                 " (topological oracle)";
    return out;
  }

  /// A layered random min-DAG: state 0 is the boundary, every later
  /// state draws 1-3 in-edges from uniformly random earlier states, so
  /// all states are reachable and the cordon finalizes everything.
  [[nodiscard]] Instance generate(const GenOptions& opt) const override {
    DagInstance p;
    p.n = std::max<std::uint64_t>(opt.n, 2);
    p.objective = core::Objective::kMin;
    p.boundary.emplace_back(0, 0.0);
    p.edges.reserve(2 * p.n);  // in-degree is uniform on [1, 3]
    for (std::uint32_t v = 1; v < p.n; ++v) {
      auto in_degree =
          1 + parallel::uniform(opt.seed ^ 0xd6e8feb8u, v, 3);
      for (std::uint64_t c = 0; c < in_degree; ++c) {
        DagInstance::Edge e;
        e.dst = v;
        e.src = static_cast<std::uint32_t>(
            parallel::uniform(opt.seed, v * 4 + c, v));
        e.weight = parallel::uniform_double(opt.seed ^ 0x2545f491u, v * 4 + c) *
                   10.0;
        p.edges.push_back(e);
      }
    }
    return {"dag", p};
  }

 private:
  static const DagInstance& validate(const Instance& inst) {
    const auto& p = inst.as<DagInstance>();
    for (const DagInstance::Edge& e : p.edges)
      if (e.src >= e.dst || e.dst >= p.n)
        throw std::invalid_argument(
            "dag instance: edges must satisfy src < dst < states");
    for (auto& [state, value] : p.boundary)
      if (state >= p.n)
        throw std::invalid_argument("dag instance: boundary state out of "
                                    "range");
    return p;
  }
};

}  // namespace

void register_dag(ProblemRegistry& reg) {
  reg.add(std::make_unique<DagSolver>());
}

}  // namespace cordon::engine
