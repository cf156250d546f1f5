// Compressed sparse rows: items grouped by row in two flat arrays, built
// by one stable counting sort.  Every per-key index a solve path needs
// (lcs symbol buckets, tree children, DAG in-edges) is this one layout,
// so none of them owns a heap container per symbol, node or state.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cordon::core {

/// Row id that build_csr skips (e.g. the parent of a tree's root).
inline constexpr std::uint32_t kNoRow =
    std::numeric_limits<std::uint32_t>::max();

/// Row r holds items[start[r] .. start[r + 1]).
struct Csr {
  std::vector<std::uint32_t> start{0};  // one offset per row, plus one
  std::vector<std::uint32_t> items;

  [[nodiscard]] std::span<const std::uint32_t> operator[](
      std::size_t r) const noexcept {
    return {items.data() + start[r], items.data() + start[r + 1]};
  }
};

/// Groups the item ids 0..count-1 by row_of(id), which is < rows or
/// kNoRow (skipped).  Stable: every row lists its items in increasing id
/// order.  O(rows + count); row_of is called twice per item.
template <typename RowOf>
[[nodiscard]] Csr build_csr(std::size_t rows, std::size_t count,
                            const RowOf& row_of) {
  if (count >= kNoRow || rows >= kNoRow)
    throw std::length_error("build_csr: offsets must fit in 32 bits");
  // Inclusive prefix sums of the counts leave start[r] at the end of row
  // r; placing items back to front then walks each start[r] down to the
  // row's beginning, in id order within the row.
  std::vector<std::uint32_t> start(rows + 1, 0);
  for (std::size_t k = 0; k < count; ++k)
    if (const std::uint32_t r = row_of(k); r != kNoRow) ++start[r];
  for (std::size_t r = 1; r < rows; ++r) start[r] += start[r - 1];
  if (rows > 0) start[rows] = start[rows - 1];
  std::vector<std::uint32_t> items(start[rows]);
  for (std::size_t k = count; k > 0; --k)
    if (const std::uint32_t r = row_of(k - 1); r != kNoRow)
      items[--start[r]] = static_cast<std::uint32_t>(k - 1);
  return {std::move(start), std::move(items)};
}

}  // namespace cordon::core
