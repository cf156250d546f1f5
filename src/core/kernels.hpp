// Tight relaxation kernels for the solve hot paths.
//
// Every cordon-round inner loop bottoms out in one of a handful of
// shapes: "min over a[i] + b[i]" (argmin of contiguous candidate arrays),
// the same with a stride (OBST columns), and scatters into SoA frontier
// arrays.  This header implements those shapes once, the way
// auto-vectorizers like them — contiguous loads, no early exits,
// branchless selects — and the SoA solvers call them.
//
// Vectorization is a *hint*, never a semantic: `CORDON_SIMD_LOOP` expands
// to the strongest innocuous per-compiler loop pragma (clang loop /
// GCC ivdep; nothing when CORDON_DISABLE_SIMD_HINTS is defined) and the
// loops are written so the hint can only change speed.  The `scalar` namespace keeps the obvious
// branchy reference implementations; oracle tests assert the two agree
// bit-for-bit (inputs are NaN-free, and both sides reduce with the same
// exact `<` comparisons, so equality is exact, not approximate).
//
// Tie-breaking contract: argmin kernels return the LEFTMOST index
// attaining the minimum (matching every sequential `<`-guarded loop they
// replace); `argmin_add_last` returns the rightmost, which the concave
// envelope construction needs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/parallel/scheduler.hpp"

// Deliberately NOT `#pragma omp simd`: several hinted loops carry a
// scalar reduction (best = v < best ? v : best), which omp simd would
// require an explicit reduction clause for — without one the program is
// non-conforming and may miscompile under -fopenmp.  The clang/GCC
// hints below are safe for such loops: they assert no *memory*
// dependence between iterations (true here), and a register reduction
// is the compiler's to recognize or reject.
#if defined(CORDON_DISABLE_SIMD_HINTS)
#define CORDON_SIMD_LOOP
#elif defined(__clang__)
#define CORDON_SIMD_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define CORDON_SIMD_LOOP _Pragma("GCC ivdep")
#else
#define CORDON_SIMD_LOOP
#endif

namespace cordon::core::kernels {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

struct ArgMin {
  double value = kInf;
  std::size_t index = 0;
};

// --- scalar references ------------------------------------------------------
//
// The semantics the vectorized kernels must reproduce exactly.  Used by
// the kernel oracle tests and available to solvers as a fallback.

namespace scalar {

/// Leftmost argmin of a[i] + b[i] over [0, n).
inline ArgMin argmin_add(const double* a, const double* b, std::size_t n) {
  ArgMin best;
  for (std::size_t i = 0; i < n; ++i) {
    double v = a[i] + b[i];
    if (v < best.value) {
      best.value = v;
      best.index = i;
    }
  }
  return best;
}

/// Rightmost argmin of a[i] + b[i] over [0, n) among finite sums (an
/// all-infinite input reports index 0, value kInf).
inline ArgMin argmin_add_last(const double* a, const double* b,
                              std::size_t n) {
  ArgMin best;
  for (std::size_t i = 0; i < n; ++i) {
    double v = a[i] + b[i];
    if (v <= best.value && v < kInf) {
      best.value = v;
      best.index = i;
    }
  }
  return best;
}

/// Leftmost argmin of a[i] + b[i * stride] (OBST: row slice + column
/// slice of a row-major table).
inline ArgMin argmin_add_strided(const double* a, const double* b,
                                 std::size_t stride, std::size_t n) {
  ArgMin best;
  for (std::size_t i = 0; i < n; ++i) {
    double v = a[i] + b[i * stride];
    if (v < best.value) {
      best.value = v;
      best.index = i;
    }
  }
  return best;
}

/// dst[idx[k]] = value for k in [0, n) (frontier finalization scatter).
inline void scatter_fill(std::uint32_t* dst, const std::size_t* idx,
                         std::size_t n, std::uint32_t value) {
  for (std::size_t k = 0; k < n; ++k) dst[idx[k]] = value;
}

}  // namespace scalar

// --- vectorized kernels -----------------------------------------------------

/// Leftmost argmin of a[i] + b[i].  Two passes: a pure min-reduction
/// (vectorizes to minpd chains), then a first-match scan for the index —
/// recomputing a[i] + b[i] is deterministic, so the match is exact.
inline ArgMin argmin_add(const double* a, const double* b, std::size_t n) {
  if (n == 0) return {};
  double best = kInf;
  CORDON_SIMD_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    double v = a[i] + b[i];
    best = v < best ? v : best;
  }
  if (best == kInf) return scalar::argmin_add(a, b, n);  // all-inf row
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] + b[i] == best) {
      idx = i;
      break;
    }
  }
  return {best, idx};
}

/// Rightmost argmin of a[i] + b[i] among finite sums (ties prefer the
/// larger index; all-infinite input reports index 0, value kInf).
inline ArgMin argmin_add_last(const double* a, const double* b,
                              std::size_t n) {
  if (n == 0) return {};
  double best = kInf;
  CORDON_SIMD_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    double v = a[i] + b[i];
    best = v < best ? v : best;
  }
  if (best == kInf) return scalar::argmin_add_last(a, b, n);
  std::size_t idx = 0;
  for (std::size_t i = n; i > 0; --i) {
    if (a[i - 1] + b[i - 1] == best) {
      idx = i - 1;
      break;
    }
  }
  return {best, idx};
}

/// Leftmost argmin of a[i] + b[i * stride].  Single pass with branchless
/// selects: the strided side is a gather, which no vectorizer turns into
/// wide loads — so unlike the contiguous kernels above there is nothing
/// to gain from a min-then-find double pass, and the second pass would
/// be pure overhead.
inline ArgMin argmin_add_strided(const double* a, const double* b,
                                 std::size_t stride, std::size_t n) {
  ArgMin best{kInf, 0};
  for (std::size_t i = 0; i < n; ++i) {
    double v = a[i] + b[i * stride];
    bool take = v < best.value;
    best.value = take ? v : best.value;
    best.index = take ? i : best.index;
  }
  return best;
}

/// dst[idx[k]] = value.
inline void scatter_fill(std::uint32_t* dst, const std::size_t* idx,
                         std::size_t n, std::uint32_t value) {
  CORDON_SIMD_LOOP
  for (std::size_t k = 0; k < n; ++k) dst[idx[k]] = value;
}

/// Parallel scatter_fill: blocks of `idx` are forked across the pool and
/// each block runs the contiguous kernel (the frontier-finalization
/// pattern of the LIS/LCS cordon rounds).  `idx` entries must be unique.
// lint: oracle=scatter_fill (pure block decomposition over that kernel)
inline void parallel_scatter_fill(std::uint32_t* dst, const std::size_t* idx,
                                  std::size_t n, std::uint32_t value) {
  constexpr std::size_t kBlock = 4096;
  std::size_t blocks = (n + kBlock - 1) / kBlock;
  parallel::parallel_for(
      0, blocks,
      [&](std::size_t b) {
        std::size_t lo = b * kBlock;
        scatter_fill(dst, idx + lo, std::min(n, lo + kBlock) - lo, value);
      },
      /*granularity=*/1, /*granularity_floor=*/1);
}

/// Leftmost argmin of f(i) for i in [lo, hi) — the templated escape hatch
/// for transition evaluators that are not (yet) raw arrays (type-erased
/// cost functions).  Single pass, branchless select; inlines to the array
/// kernels' codegen when f is a concrete capture.
// lint: oracle=argmin_add (same leftmost-< contract, f(i) for a[i]+b[i])
template <typename F>
inline ArgMin argmin_transform(std::size_t lo, std::size_t hi, const F& f) {
  ArgMin best{kInf, lo};
  for (std::size_t i = lo; i < hi; ++i) {
    double v = f(i);
    bool take = v < best.value;
    best.value = take ? v : best.value;
    best.index = take ? i : best.index;
  }
  return best;
}

/// argmin_transform with ties resolved toward the LARGER index (what the
/// concave envelope construction needs to stay consistent with DM).
// lint: oracle=argmin_add_last (same rightmost-tie contract via <=)
template <typename F>
inline ArgMin argmin_transform_last(std::size_t lo, std::size_t hi,
                                    const F& f) {
  ArgMin best{kInf, lo};
  for (std::size_t i = lo; i < hi; ++i) {
    double v = f(i);
    bool take = v <= best.value;
    best.value = take ? v : best.value;
    best.index = take ? i : best.index;
  }
  return best;
}

}  // namespace cordon::core::kernels
