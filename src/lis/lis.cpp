#include "src/lis/lis.hpp"

#include <algorithm>
#include <limits>

#include "src/core/kernels.hpp"
#include "src/core/trace.hpp"
#include "src/parallel/primitives.hpp"
#include "src/structures/tournament_tree.hpp"

namespace cordon::lis {

LisResult lis_naive(const std::vector<std::uint64_t>& a) {
  const std::size_t n = a.size();
  LisResult res;
  res.dp.assign(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      ++res.stats.relaxations;
      if (a[j] < a[i] && res.dp[j] + 1 > res.dp[i]) res.dp[i] = res.dp[j] + 1;
    }
    ++res.stats.states;
    if (res.dp[i] > res.length) res.length = res.dp[i];
  }
  return res;
}

namespace {

// One patience step: v replaces the first tail >= v (or extends the
// longest chain past the end), and the slot it lands in is the length
// of the longest strictly increasing chain ending at v, minus one.
std::uint32_t patience_push(std::vector<std::uint64_t>& tails,
                            std::uint64_t v) {
  auto it = std::lower_bound(tails.begin(), tails.end(), v);
  const auto slot = static_cast<std::uint32_t>(it - tails.begin());
  if (it == tails.end())
    tails.push_back(v);
  else
    *it = v;
  return slot;
}

}  // namespace

LisResult lis_sequential(const std::vector<std::uint64_t>& a) {
  const std::size_t n = a.size();
  LisResult res;
  res.dp.assign(n, 1);
  std::vector<std::uint64_t> tails;
  core::PollTicker poll;
  for (std::size_t i = 0; i < n; ++i) {
    poll.tick();
    res.dp[i] = patience_push(tails, a[i]) + 1;
    ++res.stats.states;
    ++res.stats.relaxations;  // exactly one effective transition per state
  }
  res.length = static_cast<std::uint32_t>(tails.size());
  return res;
}

LisResult lis_parallel(const std::vector<std::uint64_t>& a) {
  const std::size_t n = a.size();
  LisResult res;
  res.dp.assign(n, 0);
  if (n == 0) return res;

  // Cordon rounds: the ready states of round r are the prefix-minimum
  // elements among the still-active ones (Sec. 3) — no active j < i has
  // a[j] < a[i].  All of them share tentative value r, so D never needs
  // explicit relaxation (the "global tentative value" observation).
  structures::TournamentTree tree(a);
  core::AtomicDpStats stats;
  std::vector<std::size_t> frontier;  // reused: zero-alloc steady state
  std::uint32_t round = 0;
  while (!tree.empty()) {
    ++round;
    telemetry::RoundSpan round_span("lis.round", stats);
    tree.extract_prefix_minima_into(frontier);
    stats.add_round();
    stats.add_states(frontier.size());
    stats.add_relaxations(frontier.size());
    core::kernels::parallel_scatter_fill(res.dp.data(), frontier.data(),
                                         frontier.size(), round);
  }
  res.length = round;
  res.stats = stats.snapshot();
  return res;
}

std::vector<std::size_t> lis_witness(const std::vector<std::uint64_t>& a,
                                     const LisResult& res) {
  // Backward greedy: a state with DP value v chains after any earlier
  // state with value v-1 and a strictly smaller element.
  std::vector<std::size_t> out;
  std::uint32_t want = res.length;
  std::uint64_t ceiling = std::numeric_limits<std::uint64_t>::max();
  bool ceiling_open = true;  // no upper constraint yet
  for (std::size_t i = a.size(); i > 0 && want > 0; --i) {
    if (res.dp[i - 1] == want && (ceiling_open || a[i - 1] < ceiling)) {
      out.push_back(i - 1);
      ceiling = a[i - 1];
      ceiling_open = false;
      --want;
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

void lis_extend(LisFrontier& f, const std::uint64_t* values,
                std::size_t count, core::DpStats& stats) {
  for (std::size_t i = 0; i < count; ++i) {
    patience_push(f.tails, values[i]);
    ++stats.states;
    ++stats.relaxations;
  }
  f.consumed += count;
}

}  // namespace cordon::lis
