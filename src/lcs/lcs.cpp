#include "src/lcs/lcs.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <stdexcept>

#include "src/core/audit.hpp"
#include "src/core/cutoff.hpp"
#include "src/core/kernels.hpp"
#include "src/core/trace.hpp"
#include "src/parallel/primitives.hpp"
#include "src/parallel/sort.hpp"
#include "src/structures/tournament_tree.hpp"

namespace cordon::lcs {

namespace {

// A slot whose bucket half is core::kNoRow; real buckets number < |b|.
constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

// Fibonacci hashing: the top bits of the product mix every key bit, so
// symbols that share their low bits still spread over the table.
std::size_t home(std::uint32_t symbol, unsigned shift) {
  return static_cast<std::size_t>((symbol * 0x9e3779b97f4a7c15ull) >> shift);
}

// The number of match pairs, so emitters size their output exactly once.
std::size_t count_pairs(const std::vector<std::uint32_t>& a,
                        const BIndex& index) {
  std::size_t total = 0;
  for (std::uint32_t x : a) total += index.positions(x).size();
  return total;
}

// Emits every pair in (i asc, j desc) order through emit(i, j).
template <typename Emit>
void for_each_pair(const std::vector<std::uint32_t>& a, const BIndex& index,
                   const Emit& emit) {
  for (std::uint32_t i = 0; i < a.size(); ++i) {
    const std::span<const std::uint32_t> js = index.positions(a[i]);
    // j descending within equal i: later j first.
    for (std::size_t k = js.size(); k > 0; --k) emit(i, js[k - 1]);
  }
}

}  // namespace

BIndex::BIndex(const std::vector<std::uint32_t>& b) {
  if (b.size() >= core::kNoRow)
    throw std::length_error("lcs: |b| must fit in 32-bit positions");
  // At most |b| distinct symbols, so 2|b| slots keep the load <= 1/2.
  const std::size_t capacity =
      std::bit_ceil(std::max<std::size_t>(2, 2 * b.size()));
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  slots_.assign(capacity, kEmptySlot);
  std::vector<std::uint32_t> bucket_of(b.size());
  std::uint32_t buckets = 0;
  for (std::size_t j = 0; j < b.size(); ++j) {
    std::size_t s = home(b[j], shift_);
    while (slots_[s] != kEmptySlot &&
           static_cast<std::uint32_t>(slots_[s]) != b[j])
      s = (s + 1) & (capacity - 1);
    if (slots_[s] == kEmptySlot)
      slots_[s] = (std::uint64_t{buckets++} << 32) | b[j];
    bucket_of[j] = static_cast<std::uint32_t>(slots_[s] >> 32);
  }
  buckets_ = core::build_csr(buckets, b.size(),
                             [&](std::size_t j) { return bucket_of[j]; });
}

std::span<const std::uint32_t> BIndex::positions(
    std::uint32_t symbol) const noexcept {
  for (std::size_t s = home(symbol, shift_);;
       s = (s + 1) & (slots_.size() - 1)) {
    const std::uint64_t slot = slots_[s];
    if (slot == kEmptySlot) return {};
    if (static_cast<std::uint32_t>(slot) == symbol) return buckets_[slot >> 32];
  }
}

std::vector<MatchPair> match_pairs(const std::vector<std::uint32_t>& a,
                                   const std::vector<std::uint32_t>& b) {
  const BIndex index(b);
  std::vector<MatchPair> pairs;
  pairs.reserve(count_pairs(a, index));
  for_each_pair(a, index, [&](std::uint32_t i, std::uint32_t j) {
    pairs.push_back({i, j});
  });
  return pairs;  // already (i asc, j desc) by construction
}

MatchPairsSoA match_pairs_soa(const std::vector<std::uint32_t>& a,
                              const std::vector<std::uint32_t>& b) {
  const BIndex index(b);
  const std::size_t total = count_pairs(a, index);
  MatchPairsSoA pairs;
  pairs.i.reserve(total);
  pairs.j.reserve(total);
  for_each_pair(a, index, [&](std::uint32_t i, std::uint32_t j) {
    pairs.i.push_back(i);
    pairs.j.push_back(j);
  });
  return pairs;
}

LcsResult lcs_naive(const std::vector<std::uint32_t>& a,
                    const std::vector<std::uint32_t>& b) {
  const std::size_t n = a.size(), m = b.size();
  LcsResult res;
  std::vector<std::uint32_t> prev(m + 1, 0), cur(m + 1, 0);
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      ++res.stats.relaxations;
      cur[j] = a[i - 1] == b[j - 1]
                   ? prev[j - 1] + 1
                   : std::max(prev[j], cur[j - 1]);
    }
    res.stats.states += m;
    std::swap(prev, cur);
  }
  res.length = prev[m];
  return res;
}

namespace {

// Hunt–Szymanski core over the contiguous j stream: process pairs in
// (i asc, j desc) order; thresholds[k] is the smallest j ending a chain
// of length k+1.  Because j is descending within one i, a pair never
// chains onto another pair with the same i.
LcsResult sparse_seq_impl(std::span<const std::uint32_t> js) {
  LcsResult res;
  res.pair_dp.assign(js.size(), 0);
  std::vector<std::uint32_t> thresholds;  // strictly increasing j values
  core::PollTicker poll;
  for (std::size_t p = 0; p < js.size(); ++p) {
    poll.tick();
    std::uint32_t j = js[p];
    auto it = std::lower_bound(thresholds.begin(), thresholds.end(), j);
    std::uint32_t len = static_cast<std::uint32_t>(it - thresholds.begin());
    if (it == thresholds.end())
      thresholds.push_back(j);
    else
      *it = j;
    // The frontier stays strictly increasing after every overwrite:
    // O(1) neighbor probe at the touched slot is enough, since only one
    // slot changed.
    CORDON_DCHECK(len == 0 || thresholds[len - 1] < thresholds[len],
                  "lcs threshold frontier lost sortedness (left)");
    CORDON_DCHECK(len + 1 >= thresholds.size() ||
                      thresholds[len] < thresholds[len + 1],
                  "lcs threshold frontier lost sortedness (right)");
    res.pair_dp[p] = len + 1;
    ++res.stats.states;
    ++res.stats.relaxations;
  }
  res.length = static_cast<std::uint32_t>(thresholds.size());
  return res;
}

// Cordon rounds over the j key stream.  The pairs on the cordon are
// exactly the prefix minima (Sec. 3, Fig. 2(f)), i.e., the LCS over the
// secondary keys is an LIS instance.  One frontier buffer is reused for
// every round and the finalization scatter runs through the block kernel.
LcsResult parallel_impl(std::span<const std::uint32_t> js) {
  LcsResult res;
  res.pair_dp.assign(js.size(), 0);
  if (js.empty()) return res;

  structures::TournamentTree tree(js);
  core::AtomicDpStats stats;
  std::vector<std::size_t> frontier;  // reused: zero-alloc steady state
  // Round fusion: a cordon of few pairs (relaxations == frontier size)
  // is not worth forking the scatter for; run such rounds inline.  The
  // previous round's frontier predicts the next one well enough here.
  const std::size_t fuse_threshold = core::fuse_relax_threshold();
  std::size_t prev_frontier = std::numeric_limits<std::size_t>::max();
  std::uint32_t round = 0;
  while (!tree.empty()) {
    ++round;
    telemetry::RoundSpan round_span("lcs.round", stats);
    tree.extract_prefix_minima_into(frontier);
    stats.add_round();
    stats.add_states(frontier.size());
    stats.add_relaxations(frontier.size());
    if (core::fuse_round(prev_frontier, fuse_threshold)) {
      parallel::SequentialRegion seq;
      core::kernels::parallel_scatter_fill(res.pair_dp.data(), frontier.data(),
                                           frontier.size(), round);
    } else {
      core::kernels::parallel_scatter_fill(res.pair_dp.data(), frontier.data(),
                                           frontier.size(), round);
    }
    prev_frontier = frontier.size();
  }
  res.length = round;
  res.stats = stats.snapshot();
  return res;
}

// The AoS entry points only need the j stream: peel it off once.
std::vector<std::uint32_t> j_stream(const std::vector<MatchPair>& pairs) {
  std::vector<std::uint32_t> js(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) js[p] = pairs[p].j;
  return js;
}

}  // namespace

LcsResult lcs_sparse_seq(const std::vector<MatchPair>& pairs) {
  return sparse_seq_impl(j_stream(pairs));
}

LcsResult lcs_sparse_seq(const MatchPairsSoA& pairs) {
  return sparse_seq_impl(pairs.j);
}

LcsResult lcs_parallel(const std::vector<MatchPair>& pairs) {
  return parallel_impl(j_stream(pairs));
}

LcsResult lcs_parallel(const MatchPairsSoA& pairs) {
  return parallel_impl(pairs.j);
}

namespace {

LcsResult auto_impl(std::span<const std::uint32_t> js) {
  const std::size_t cutoff =
      core::cutoff_from_env("CORDON_LCS_CUTOFF", core::kLcsSeqCutoff);
  const std::size_t min_workers =
      core::cutoff_from_env("CORDON_LCS_MIN_WORKERS", core::kLcsMinWorkers);
  if (core::use_sequential(js.size(), cutoff, min_workers)) {
    LcsResult r = sparse_seq_impl(js);
    r.path = core::SolvePath::kSequentialCutoff;
    return r;
  }
  return parallel_impl(js);
}

}  // namespace

LcsResult lcs_auto(const std::vector<MatchPair>& pairs) {
  return auto_impl(j_stream(pairs));
}

LcsResult lcs_auto(const MatchPairsSoA& pairs) { return auto_impl(pairs.j); }

namespace {

// Backward greedy: a pair with DP value v chains onto any pair with
// value v-1 strictly above-left of it; scanning the (i asc, j desc)
// order backwards and keeping strictly-dominated coordinates always
// finds one (the DP values certify existence).
template <typename PairAt>
std::vector<MatchPair> recover_impl(std::size_t count, const PairAt& pair_at,
                                    const LcsResult& res) {
  std::vector<MatchPair> chain;
  std::uint32_t want = res.length;
  std::uint32_t limit_i = 0xffffffffu, limit_j = 0xffffffffu;
  for (std::size_t p = count; p > 0 && want > 0; --p) {
    const MatchPair pr = pair_at(p - 1);
    if (res.pair_dp[p - 1] == want && pr.i < limit_i && pr.j < limit_j) {
      chain.push_back(pr);
      limit_i = pr.i;
      limit_j = pr.j;
      --want;
    }
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

}  // namespace

std::vector<MatchPair> recover_chain(const std::vector<MatchPair>& pairs,
                                     const LcsResult& res) {
  return recover_impl(
      pairs.size(), [&](std::size_t p) { return pairs[p]; }, res);
}

std::vector<MatchPair> recover_chain(const MatchPairsSoA& pairs,
                                     const LcsResult& res) {
  return recover_impl(
      pairs.size(),
      [&](std::size_t p) {
        return MatchPair{pairs.i[p], pairs.j[p]};
      },
      res);
}

void lcs_extend(LcsFrontier& f, const BIndex& index,
                const std::uint32_t* a_suffix, std::size_t count,
                core::DpStats& stats) {
  // Same update as sparse_seq_impl, same (i asc, j desc) pair order:
  // the frontier after (prefix ++ suffix) is bitwise the frontier the
  // sequential algorithm would reach on the concatenation.
  for (std::size_t ai = 0; ai < count; ++ai) {
    const std::span<const std::uint32_t> positions =
        index.positions(a_suffix[ai]);
    for (std::size_t k = positions.size(); k > 0; --k) {
      std::uint32_t j = positions[k - 1];
      auto t = std::lower_bound(f.thresholds.begin(), f.thresholds.end(), j);
      std::size_t slot = static_cast<std::size_t>(t - f.thresholds.begin());
      if (t == f.thresholds.end())
        f.thresholds.push_back(j);
      else
        *t = j;
      CORDON_DCHECK(slot == 0 || f.thresholds[slot - 1] < f.thresholds[slot],
                    "lcs resumed frontier lost sortedness (left)");
      CORDON_DCHECK(slot + 1 >= f.thresholds.size() ||
                        f.thresholds[slot] < f.thresholds[slot + 1],
                    "lcs resumed frontier lost sortedness (right)");
      ++f.pairs_consumed;
      ++stats.states;
      ++stats.relaxations;
    }
  }
  f.a_consumed += count;
}

}  // namespace cordon::lcs
