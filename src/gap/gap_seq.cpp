#include <limits>
#include <memory>

#include "src/core/cancel.hpp"
#include "src/gap/gap.hpp"
#include "src/structures/monotonic_queue.hpp"

namespace cordon::gap {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

GapResult gap_naive(const std::vector<std::uint32_t>& a,
                    const std::vector<std::uint32_t>& b,
                    const glws::CostFn& w1, const glws::CostFn& w2) {
  const std::size_t n = a.size(), m = b.size();
  GapResult res;
  res.rows = n + 1;
  res.cols = m + 1;
  res.d.assign(res.rows * res.cols, kInf);
  auto d = [&](std::size_t i, std::size_t j) -> double& {
    return res.d[i * res.cols + j];
  };
  d(0, 0) = 0.0;
  for (std::size_t i = 0; i <= n; ++i) {
    for (std::size_t j = 0; j <= m; ++j) {
      if (i == 0 && j == 0) continue;
      double best = kInf;
      for (std::size_t ip = 0; ip < i; ++ip) {  // P: gap in A
        ++res.stats.relaxations;
        best = std::min(best, d(ip, j) + w1(ip, i));
      }
      for (std::size_t jp = 0; jp < j; ++jp) {  // Q: gap in B
        ++res.stats.relaxations;
        best = std::min(best, d(i, jp) + w2(jp, j));
      }
      if (i > 0 && j > 0 && a[i - 1] == b[j - 1]) {
        ++res.stats.relaxations;
        best = std::min(best, d(i - 1, j - 1));
      }
      d(i, j) = best;
      ++res.stats.states;
    }
  }
  res.distance = d(n, m);
  return res;
}

namespace {

template <typename Cost1, typename Cost2>
GapResult seq_body(const std::vector<std::uint32_t>& a,
                   const std::vector<std::uint32_t>& b, const Cost1& w1,
                   const Cost2& w2, glws::Shape shape) {
  const std::size_t n = a.size(), m = b.size();
  GapResult res;
  res.rows = n + 1;
  res.cols = m + 1;
  res.d.assign(res.rows * res.cols, kInf);
  auto d = [&](std::size_t i, std::size_t j) -> double& {
    return res.d[i * res.cols + j];
  };
  d(0, 0) = 0.0;

  core::DpStats stats;
  const bool convex = shape == glws::Shape::kConvex;

  // One monotonic queue per column (candidates = finalized rows of that
  // column, evaluated with w1) and one per row (candidates = finalized
  // columns of that row, evaluated with w2).  Row-major order inserts
  // every candidate before any state that needs it.
  struct ColEval {
    const GapResult* res;
    const Cost1* w1;
    std::size_t j;
    core::DpStats* stats;
    double operator()(std::size_t ip, std::size_t i) const {
      ++stats->relaxations;
      return res->at(ip, j) + (*w1)(ip, i);
    }
  };
  struct RowEval {
    const GapResult* res;
    const Cost2* w2;
    std::size_t i;
    core::DpStats* stats;
    double operator()(std::size_t jp, std::size_t j) const {
      ++stats->relaxations;
      return res->at(i, jp) + (*w2)(jp, j);
    }
  };
  using ColQueue = structures::MonotonicQueue<ColEval>;
  using RowQueue = structures::MonotonicQueue<RowEval>;

  std::vector<std::unique_ptr<ColQueue>> col_q(m + 1);
  for (std::size_t j = 0; j <= m; ++j)
    col_q[j] = std::make_unique<ColQueue>(n, ColEval{&res, &w1, j, &stats});

  core::PollTicker poll;
  for (std::size_t i = 0; i <= n; ++i) {
    RowQueue row_q(m, RowEval{&res, &w2, i, &stats});
    for (std::size_t j = 0; j <= m; ++j) {
      poll.tick();
      if (i != 0 || j != 0) {
        double best = kInf;
        if (i > 0) {
          std::size_t ip = col_q[j]->best(i);
          best = std::min(best, res.at(ip, j) + w1(ip, i));
        }
        if (j > 0) {
          std::size_t jp = row_q.best(j);
          best = std::min(best, res.at(i, jp) + w2(jp, j));
        }
        if (i > 0 && j > 0 && a[i - 1] == b[j - 1])
          best = std::min(best, res.at(i - 1, j - 1));
        d(i, j) = best;
        ++stats.states;
      }
      // D[i][j] is now final: offer it as a candidate to its row and
      // column queues.
      if (j < m) {
        if (convex)
          row_q.insert_convex(j);
        else
          row_q.insert_concave(j);
      }
      if (i < n) {
        if (convex)
          col_q[j]->insert_convex(i);
        else
          col_q[j]->insert_concave(i);
      }
    }
  }
  res.distance = res.at(n, m);
  res.stats = stats;
  return res;
}

}  // namespace

GapResult gap_seq(const std::vector<std::uint32_t>& a,
                  const std::vector<std::uint32_t>& b, const glws::CostFn& w1,
                  const glws::CostFn& w2, glws::Shape shape) {
  return glws::with_cost(w1, [&](const auto& c1) {
    return glws::with_cost(
        w2, [&](const auto& c2) { return seq_body(a, b, c1, c2, shape); });
  });
}

}  // namespace cordon::gap
