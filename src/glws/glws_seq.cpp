#include <limits>

#include "src/core/cancel.hpp"
#include "src/glws/glws.hpp"
#include "src/structures/monotonic_queue.hpp"

namespace cordon::glws {

GlwsResult glws_naive(std::size_t n, double d0, const CostFn& w,
                      const EFn& e) {
  GlwsResult res;
  res.d.assign(n + 1, std::numeric_limits<double>::infinity());
  res.best.assign(n + 1, 0);
  res.d[0] = d0;
  std::vector<double> ev(n + 1);
  ev[0] = e(d0, 0);
  core::PollTicker poll;
  for (std::size_t i = 1; i <= n; ++i) {
    poll.tick();
    for (std::size_t j = 0; j < i; ++j) {
      double cand = ev[j] + w(j, i);
      ++res.stats.relaxations;
      if (cand < res.d[i]) {
        res.d[i] = cand;
        res.best[i] = static_cast<std::uint32_t>(j);
      }
    }
    ev[i] = e(res.d[i], i);
    ++res.stats.states;
  }
  return res;
}

namespace {

template <typename Cost>
GlwsResult sequential_body(std::size_t n, double d0, const Cost& w,
                           const EFn& e, Shape shape) {
  GlwsResult res;
  res.d.assign(n + 1, 0.0);
  res.best.assign(n + 1, 0);
  res.d[0] = d0;
  if (n == 0) return res;

  // E values are filled in as states finalize; eval(j, i) never touches
  // an E that has not been computed because candidates are inserted only
  // after their state is decided.
  std::vector<double> ev(n + 1);
  ev[0] = e(d0, 0);

  core::DpStats stats;
  auto eval = [&](std::size_t j, std::size_t i) {
    ++stats.relaxations;
    return ev[j] + w(j, i);
  };
  structures::MonotonicQueue<decltype(eval)> queue(n, eval);
  shape == Shape::kConvex ? queue.insert_convex(0) : queue.insert_concave(0);

  core::PollTicker poll;
  for (std::size_t i = 1; i <= n; ++i) {
    poll.tick();
    std::size_t j = queue.best(i);
    res.best[i] = static_cast<std::uint32_t>(j);
    res.d[i] = ev[j] + w(j, i);
    ev[i] = e(res.d[i], i);
    ++stats.states;
    if (i < n) {
      if (shape == Shape::kConvex)
        queue.insert_convex(i);
      else
        queue.insert_concave(i);
    }
  }
  res.stats = stats;
  return res;
}

}  // namespace

GlwsResult glws_sequential(std::size_t n, double d0, const CostFn& w,
                           const EFn& e, Shape shape) {
  return with_cost(w, [&](const auto& cost) {
    return sequential_body(n, d0, cost, e, shape);
  });
}

}  // namespace cordon::glws
