// Sequential Garsia–Wachs (phase 1 + level extraction).
//
// Scans for the first node y with w(prev(y)) <= w(next(y)); the pair
// (prev(y), y) is then a locally minimal pair (the failed triggers to its
// left force strict descent of 2-sums).  After combining and
// reinserting, only the neighbourhoods of the removal and insertion
// points can produce new triggers, so the scan resumes at prev(x).  A
// combine backs the scan up by at most two nodes, so it takes O(n) steps
// in total, and each reinsertion is an O(log n) treap search
// (src/oat/gw_list.hpp).
// stats.relaxations counts the scan's steps plus the searches' nodes.
#include "src/oat/gw_list.hpp"
#include "src/oat/oat.hpp"

namespace cordon::oat {

OatResult oat_garsia_wachs(const std::vector<double>& weights) {
  detail::check_weights(weights);
  const std::size_t n = weights.size();
  OatResult res;
  if (n == 0) return res;
  if (n == 1) {
    res.levels = {0};
    return res;
  }

  detail::GwList list(weights);
  std::uint32_t y = list.next(list.first());
  while (list.size() > 1) {
    // Find the first trigger position at or after y.
    while (!(list.weight(list.prev(y)) <= list.weight(list.next(y)))) {
      y = list.next(y);
      ++res.stats.relaxations;
    }
    std::uint32_t x = list.prev(y);
    std::uint32_t resume = list.prev(x);
    std::uint32_t after = list.next(y);
    std::uint32_t z = list.combine(x);
    res.stats.relaxations += list.reinsert(z, after);
    ++res.stats.states;
    // Resume at the leftmost node whose neighbourhood changed.
    y = list.is_sentinel(resume) ? list.first() : resume;
    if (list.is_sentinel(y)) y = list.first();
    // The trigger needs a real prev; if y is the very first node its
    // prev is the +inf sentinel and the trigger can still fire only via
    // next being +inf (size 1), which the loop guard handles.
  }
  detail::set_levels(res, weights, list.combines());
  res.stats.rounds = res.stats.states;  // one combine per "round" sequentially
  return res;
}

}  // namespace cordon::oat
