#include "src/lis/lis.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "src/core/cutoff.hpp"
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

template <typename Key>
LisResult keys_sequential(std::span<const Key> keys) {
  LisResult res;
  res.dp.assign(keys.size(), 0);
  std::vector<Key> tails;
  core::PollTicker poll;
  for (std::size_t p = 0; p < keys.size(); ++p) {
    poll.tick();
    res.dp[p] = patience_push(tails, keys[p]) + 1;
    ++res.stats.states;
    ++res.stats.relaxations;  // exactly one effective transition per key
  }
  res.length = static_cast<std::uint32_t>(tails.size());
  return res;
}

template <typename Key>
LisResult keys_parallel(std::span<const Key> keys, const char* round_span) {
  LisResult res;
  res.dp.assign(keys.size(), 0);
  if (keys.empty()) return res;

  // The ready keys of round r are the prefix minima among the still-active
  // ones (Sec. 3): no active key before them is smaller.  All of them
  // share tentative value r, so dp never needs explicit relaxation (the
  // "global tentative value" observation).
  structures::TournamentTree tree(keys);
  core::AtomicDpStats stats;
  std::vector<std::size_t> frontier;  // reused: zero-alloc steady state
  // Round fusion: a cordon of few keys (relaxations == frontier size) is
  // not worth forking the scatter for; run such rounds inline.  The
  // previous round's frontier predicts the next one well enough here.
  std::size_t prev_frontier = std::numeric_limits<std::size_t>::max();
  std::uint32_t round = 0;
  while (!tree.empty()) {
    ++round;
    telemetry::RoundSpan span(round_span, stats);
    tree.extract_prefix_minima_into(frontier);
    stats.add_round();
    stats.add_states(frontier.size());
    stats.add_relaxations(frontier.size());
    std::optional<parallel::SequentialRegion> fused;
    if (core::fuse_round(prev_frontier)) fused.emplace();
    core::kernels::parallel_scatter_fill(res.dp.data(), frontier.data(),
                                         frontier.size(), round);
    prev_frontier = frontier.size();
  }
  res.length = round;
  res.stats = stats.snapshot();
  return res;
}

template <typename Key>
LisResult keys_auto(std::span<const Key> keys, const char* round_span) {
  if (core::use_sequential(keys.size(), core::kLisSeqCutoff,
                           core::kLisMinWorkers)) {
    LisResult r = keys_sequential(keys);
    r.path = core::SolvePath::kSequentialCutoff;
    return r;
  }
  return keys_parallel(keys, round_span);
}

template LisResult keys_sequential(std::span<const std::uint64_t>);
template LisResult keys_sequential(std::span<const std::uint32_t>);
template LisResult keys_parallel(std::span<const std::uint64_t>, const char*);
template LisResult keys_parallel(std::span<const std::uint32_t>, const char*);
template LisResult keys_auto(std::span<const std::uint64_t>, const char*);
template LisResult keys_auto(std::span<const std::uint32_t>, const char*);

LisResult lis_sequential(const std::vector<std::uint64_t>& a) {
  return keys_sequential<std::uint64_t>(a);
}

LisResult lis_parallel(const std::vector<std::uint64_t>& a) {
  return keys_parallel<std::uint64_t>(a, "lis.round");
}

LisResult lis_auto(const std::vector<std::uint64_t>& a) {
  return keys_auto<std::uint64_t>(a, "lis.round");
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
