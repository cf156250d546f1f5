// Parallel stable merge sort and helpers.
//
// oat_parallel sorts each round's parents into their reinsertion slots
// with it (src/oat/oat_parallel.cpp); test_primitives, test_edge_cases
// and bench_micro_structures exercise it directly.  The merge is the
// classic D&C parallel merge: split the larger half at its midpoint,
// binary-search the split point in the other half, recurse on both sides
// in parallel — O(n) work, O(log^2 n) span.  Below kSortCutoff elements
// the same merge sort runs inline, down to insertion-sorted runs, so a
// sort given its scratch buffer allocates nothing.
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "src/parallel/scheduler.hpp"

namespace cordon::parallel {

namespace detail {

inline constexpr std::size_t kSortCutoff = 4096;
inline constexpr std::size_t kInsertionCutoff = 16;

template <typename It, typename Out, typename Less>
void merge_par(It a_lo, It a_hi, It b_lo, It b_hi, Out out, const Less& less) {
  std::size_t na = static_cast<std::size_t>(a_hi - a_lo);
  std::size_t nb = static_cast<std::size_t>(b_hi - b_lo);
  if (na + nb <= kSortCutoff) {
    std::merge(a_lo, a_hi, b_lo, b_hi, out, less);
    return;
  }
  // Split the larger run at its midpoint and binary-search the matching
  // split point in the other run.  The bound choice keeps the merge
  // stable: elements of `b` equal to the pivot from `a` must land after
  // it (lower_bound), while elements of `a` equal to a pivot from `b`
  // must land before it (upper_bound).
  It a_mid, b_mid;
  if (na >= nb) {
    a_mid = a_lo + static_cast<std::ptrdiff_t>(na / 2);
    b_mid = std::lower_bound(b_lo, b_hi, *a_mid, less);
  } else {
    b_mid = b_lo + static_cast<std::ptrdiff_t>(nb / 2);
    a_mid = std::upper_bound(a_lo, a_hi, *b_mid, less);
  }
  Out out_mid = out + (a_mid - a_lo) + (b_mid - b_lo);
  par_do([&] { merge_par(a_lo, a_mid, b_lo, b_mid, out, less); },
         [&] { merge_par(a_mid, a_hi, b_mid, b_hi, out_mid, less); });
}

template <typename T, typename Less>
void sort_rec(T* data, T* buffer, std::size_t n, const Less& less,
              bool data_is_dest) {
  if (n <= kInsertionCutoff) {
    for (std::size_t i = 1; i < n; ++i) {
      T v = data[i];
      std::size_t j = i;
      for (; j > 0 && less(v, data[j - 1]); --j) data[j] = data[j - 1];
      data[j] = v;
    }
    if (!data_is_dest) std::copy(data, data + n, buffer);
    return;
  }
  std::size_t mid = n / 2;
  auto left = [&] { sort_rec(data, buffer, mid, less, !data_is_dest); };
  auto right = [&] {
    sort_rec(data + mid, buffer + mid, n - mid, less, !data_is_dest);
  };
  if (n <= kSortCutoff) {
    left();
    right();
  } else {
    par_do(left, right);
  }
  // After recursion the sorted halves live in the *other* array.
  T* src = data_is_dest ? buffer : data;
  T* dst = data_is_dest ? data : buffer;
  merge_par(src, src + mid, src + mid, src + n, dst, less);
}

}  // namespace detail

/// Stable parallel sort of `v`, with `buffer` (at least v.size()
/// elements) as scratch.
template <typename T, typename Less>
void sort(std::span<T> v, std::span<T> buffer, const Less& less) {
  detail::sort_rec(v.data(), buffer.data(), v.size(), less,
                   /*data_is_dest=*/true);
}

/// Stable parallel sort.
template <typename T, typename Less = std::less<T>>
void sort(std::vector<T>& v, Less less = Less{}) {
  std::vector<T> buffer(v.size());
  sort(std::span<T>(v), std::span<T>(buffer), less);
}

}  // namespace cordon::parallel
