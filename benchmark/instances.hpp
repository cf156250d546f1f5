// Seeded instance generation, the raw family entry points the traced run
// times, and the output check shared by every workload.
//
// Every instance is a pure function of (family, scale, seed, index), so
// a checker can regenerate any request's input instead of keeping it,
// and the same --seed gives the same inputs on every machine.  The
// generators follow the shapes of the adapters' own `generate` (value
// ranges, alphabets, cost families) but live here: the program under
// test only ever receives finished instances.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string_view>

#include "src/core/dp_stats.hpp"
#include "src/engine/instance.hpp"

namespace bench {

inline constexpr std::array<std::string_view, 9> kFamilies{
    "glws", "lis", "lcs", "gap", "oat", "obst", "treeglws", "kglws", "dag"};

/// Sizes an instance is drawn at.
///   kPaper   — the paper-scale instance of solve_large (one per family);
///   kService — the request mix of service_cold / service_zipf, sized so
///              one solve takes roughly 0.2-5 ms at 4 workers;
///   kSession — the full instance a session_append session grows into
///              (lis, lcs and convex glws only).
enum class Scale { kPaper, kService, kSession };

[[nodiscard]] cordon::engine::Instance make_instance(std::string_view family,
                                                     Scale scale,
                                                     std::uint64_t seed,
                                                     std::uint64_t index);

/// The objective and work counters of one raw family call.
struct LayerResult {
  double objective = 0;
  cordon::core::DpStats stats;
};

/// A family's raw entry points bound to one prepared instance (match
/// pairs and the rooted tree are built up front, so a call times the
/// algorithm alone).  `entry(true)` runs the parallel entry:
/// glws_parallel, lis_parallel, lcs_parallel, gap_parallel, oat_parallel,
/// obst_parallel, tree_glws_parallel, kglws_dc, or Solver::solve for dag.
/// `entry(false)` runs the sequential algorithm: glws_sequential,
/// lis_sequential, lcs_sparse_seq, gap_seq, oat_garsia_wachs, obst_knuth,
/// tree_glws_sequential, kglws_smawk, or Solver::solve_reference for dag.
using FamilyEntry = std::function<LayerResult(bool parallel)>;

[[nodiscard]] FamilyEntry prepare_entry(const cordon::engine::Instance& inst);

/// The correctness rule of every workload: exact for the integer
/// objectives (lis, lcs lengths), 1e-6 relative (floored at 1) for
/// doubles, the tolerance `cordon_cli stress` uses.
[[nodiscard]] bool objectives_match(std::string_view family, double got,
                                    double want);

}  // namespace bench
