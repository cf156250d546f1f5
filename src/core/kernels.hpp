// Tight relaxation kernels for the solve hot paths.
//
// Every cordon-round inner loop bottoms out in one of a handful of
// shapes: "min over f(i)" (argmin of a transition evaluator over a
// decision range), the same over a strided table (OBST columns), and
// scatters into SoA frontier arrays.  This header implements those
// shapes once, the way auto-vectorizers like them — contiguous loads,
// no early exits, branchless selects — and the solvers call them.  The
// `scalar` namespace keeps the obvious branchy reference
// implementations; oracle tests assert the two agree bit-for-bit
// (inputs are NaN-free, and both sides reduce with the same exact `<`
// comparisons, so equality is exact, not approximate).
//
// Tie-breaking contract: argmin kernels return the LEFTMOST index
// attaining the minimum (matching every sequential `<`-guarded loop they
// replace); `argmin_transform_last` returns the rightmost, which the
// concave envelope construction needs.  So an all-infinite range
// reports value kInf at its first index, or at its last for the
// rightmost kernel; an empty range [lo, lo) reports kInf at lo.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/parallel/scheduler.hpp"

namespace cordon::core::kernels {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

struct ArgMin {
  double value = kInf;
  std::size_t index = 0;
};

// --- scalar references ------------------------------------------------------
//
// The semantics the production kernels must reproduce exactly, over
// [0, n) of the arrays they are given.  Used by the kernel oracle tests.

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

/// Rightmost argmin of a[i] + b[i] over [0, n): ties prefer the larger
/// index, so an all-infinite input reports index n - 1, value kInf.
inline ArgMin argmin_add_last(const double* a, const double* b,
                              std::size_t n) {
  ArgMin best;
  for (std::size_t i = 0; i < n; ++i) {
    double v = a[i] + b[i];
    if (v <= best.value) {
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

// --- production kernels -----------------------------------------------------

/// Leftmost argmin of a[i] + b[i * stride].  Single pass with branchless
/// selects: the strided side is a gather, which no vectorizer turns into
/// wide loads, so a min-then-find double pass would be pure overhead.
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

/// Leftmost argmin of f(i) for i in [lo, hi), where f evaluates one
/// transition (the envelope searches of src/glws/envelope_tools.hpp).
/// Single pass, branchless select.
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
