// Hu–Tucker (phase 1) — the original optimal alphabetic tree algorithm.
//
// Working list of nodes, each *opaque* (an original leaf) or
// *transparent* (a combined internal node).  A pair is compatible when
// every node strictly between its endpoints is transparent.  Each step
// combines the compatible pair with the minimum weight sum, breaking
// ties towards the smaller left position and then the smaller right
// position (Knuth's tie-break, required for correctness).  The combined
// node is transparent and takes the left endpoint's position.
//
// This is the straightforward O(n^2) variant (the O(n log n) versions
// need mergeable priority queues per opaque gap); it exists as an
// independent check on Garsia–Wachs: both must produce the same l-tree
// level sequence.
#include <limits>
#include <vector>

#include "src/oat/oat.hpp"

namespace cordon::oat {

OatResult oat_hu_tucker(const std::vector<double>& weights) {
  detail::check_weights(weights);
  const std::size_t n = weights.size();
  OatResult res;
  if (n == 0) return res;
  if (n == 1) {
    res.levels = {0};
    return res;
  }

  // Arena: leaves then internal nodes.
  std::vector<double> w(weights);
  std::vector<bool> transparent(n, false);
  std::vector<detail::Combine> combines;
  combines.reserve(n - 1);
  // Live list as next/prev over arena ids (position = list order).
  std::vector<std::uint32_t> order;  // current list, rebuilt lazily
  order.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) order.push_back(i);

  for (std::size_t step = 0; step + 1 < n; ++step) {
    // Find the min-sum compatible pair.  For a left endpoint at list
    // position p, the right candidates run until just past the first
    // opaque node after p.
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_p = 0, best_q = 0;
    for (std::size_t p = 0; p + 1 < order.size(); ++p) {
      std::uint32_t a = order[p];
      for (std::size_t q = p + 1; q < order.size(); ++q) {
        std::uint32_t b = order[q];
        double s = w[a] + w[b];
        ++res.stats.relaxations;
        if (s < best) {  // strict <: earliest (p, q) wins ties
          best = s;
          best_p = p;
          best_q = q;
        }
        if (!transparent[b]) break;  // opaque blocks further pairs from p
      }
    }
    // Combine: new transparent node at best_p's position.
    std::uint32_t a = order[best_p], b = order[best_q];
    std::uint32_t z = static_cast<std::uint32_t>(w.size());
    w.push_back(w[a] + w[b]);
    transparent.push_back(true);
    combines.push_back({a, b});
    order[best_p] = z;
    order.erase(order.begin() + static_cast<std::ptrdiff_t>(best_q));
    ++res.stats.states;
  }

  detail::set_levels(res, weights, combines);
  res.stats.rounds = n - 1;
  return res;
}

}  // namespace cordon::oat
