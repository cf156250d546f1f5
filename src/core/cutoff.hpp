// Adaptive sequential-cutoff policy shared by the family solvers.
//
// The parallel algorithms pay a real constant factor over their
// sequential counterparts (envelope rebuilds, atomic frontiers, fork
// overhead) that only parallel hardware can buy back.  Each family
// therefore exposes a `*_auto` entry point that routes a solve to the
// plain sequential algorithm when there is nothing to buy it back with:
// when the effective parallelism is below the family's minimum
// beneficial worker count (single-worker pool, SequentialRegion, or
// just too few workers to amortize the family's constant factor) or
// when the instance is below a per-family work threshold.  This is what
// makes the 1-thread bench series match `sequential_s` for free and
// keeps small instances out of the scheduler entirely.
//
// A second, finer rule handles the high-round/low-work regime the
// thread sweep exposed (e.g. glws with k ~ n/4: thousands of rounds of
// ~150 relaxations each, which is pure scheduling overhead at any pool
// size): round fusion runs an individual round inline — under
// SequentialRegion, no forks — whenever the previous round's measured
// relaxation count falls below `kFuseRelax`.  The solver stays on the
// parallel path (`SolvePath::kParallel`); fused rounds are only visible
// in the kSolverFusedRounds telemetry counter.
//
// Routing reads nothing but the effective parallelism and the instance
// size: the thresholds are the constants below, changed by editing them
// (docs/SCALING.md has the retune recipe).  lis and lcs run one
// key-stream core (src/lis/lis.hpp), so the kLis* pair routes both.
// treeglws has no cutoff: its production DFS forks only at subtrees big
// enough to pay for a branch (src/treeglws/tree_glws.hpp).
#pragma once

#include <cstddef>

#include "src/core/dp_stats.hpp"
#include "src/core/telemetry.hpp"
#include "src/parallel/scheduler.hpp"

namespace cordon::core {

/// Per-family size cutoffs (in the family's own work unit; see each
/// `*_auto` doc).  Chosen so that, at the measured ~2-3x 1-thread
/// overhead of the parallel paths, an instance below the cutoff cannot
/// win even on a fully parallel machine once fork/round overhead is
/// paid.  Tuning guidance lives in docs/SCALING.md.
inline constexpr std::size_t kGlwsSeqCutoff = 2048;      // n states
inline constexpr std::size_t kLisSeqCutoff = 4096;       // keys: values or match pairs
inline constexpr std::size_t kGapSeqCutoff = 16384;      // dp cells

/// Minimum worker count at which each family's parallel path can beat
/// its sequential algorithm.  A floor is the first measured worker count
/// where the parallel path beats the sequential one; the 1-thread
/// overhead ratio alone mispredicts it.  glws pays only ~2.3x inline,
/// yet on a 4-vCPU host (n = 2^20, 10,486 rounds, each paying a
/// fork/join) glws_parallel took 1.5-4.1 s against 0.22-0.25 s
/// sequential, so its floor is 8, like lis and lcs (tournament tree vs
/// the branch-free patience loop: lis at n = 2^21 took 0.30-0.38 s on 4
/// workers against 0.054-0.065 s sequential) and gap (~6x, staircase
/// probing + row/column envelope merges).  No 8-core measurement backs the 8;
/// it only says that 4 loses.  Below the family's floor the `*_auto`
/// entry points route sequentially — that IS the right production
/// answer on that machine, not a concession.
inline constexpr std::size_t kGlwsMinWorkers = 8;
inline constexpr std::size_t kLisMinWorkers = 8;
inline constexpr std::size_t kGapMinWorkers = 8;

/// The routing decision: sequential when fewer than `min_workers`
/// workers are effectively available (a pool the parallel path cannot
/// win on), or when the instance's work measure is under `threshold`.
/// Bumps kSolverSeqCutoffs when it routes sequentially so telemetry
/// shows the path.
inline bool use_sequential(std::size_t work, std::size_t threshold,
                           std::size_t min_workers) noexcept {
  bool seq = parallel::effective_parallelism() < min_workers ||
             work < threshold;
  if (seq) telemetry::count(telemetry::Counter::kSolverSeqCutoffs);
  return seq;
}

/// Relaxations-per-round floor below which round fusion kicks in.  A
/// round this light is dominated by fork + frontier-rebuild overhead at
/// any worker count; running it inline costs at most this many
/// relaxations of sequential work per round.
inline constexpr std::size_t kFuseRelax = 4096;

/// Decides whether the NEXT round should run inline, given the measured
/// relaxation count of the previous round (pass ~SIZE_MAX before the
/// first round so it never fuses blind).  Bumps kSolverFusedRounds.
inline bool fuse_round(std::size_t prev_round_relaxations) noexcept {
  if (prev_round_relaxations >= kFuseRelax) return false;
  telemetry::count(telemetry::Counter::kSolverFusedRounds);
  return true;
}

}  // namespace cordon::core
