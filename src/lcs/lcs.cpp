#include "src/lcs/lcs.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

#include "src/lis/lis.hpp"
#include "src/parallel/primitives.hpp"

namespace cordon::lcs {

namespace {

// A slot whose bucket half is core::kNoRow; real buckets number < |b|.
constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

// Fibonacci hashing: the top bits of the product mix every key bit, so
// symbols that share their low bits still spread over the table.
std::size_t home(std::uint32_t symbol, unsigned shift) {
  return static_cast<std::size_t>((symbol * 0x9e3779b97f4a7c15ull) >> shift);
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

namespace {

// The one match-pair walk, in parallel::pack's shape: count the pairs of
// each block of kEmitBlock symbols of `a`, prefix-sum the counts, then
// let every block write its pairs from its offset in (i asc, j desc)
// order.  A pair's position depends on the input alone, so every pool
// size writes the same output, and a single block or worker runs
// inline.  `size(L)` sizes the outputs once; `put(p, i, j)` writes pair p.
template <typename Size, typename Put>
void emit_pairs(const std::vector<std::uint32_t>& a,
                const std::vector<std::uint32_t>& b, const Size& size,
                const Put& put) {
  const BIndex index(b);
  const std::size_t blocks = (a.size() + kEmitBlock - 1) / kEmitBlock;
  const auto each_block = [&](const auto& body) {
    parallel::parallel_for(
        0, blocks,
        [&](std::size_t blk) {
          const std::size_t lo = blk * kEmitBlock;
          body(blk, lo, std::min(a.size(), lo + kEmitBlock));
        },
        1);
  };
  std::vector<std::size_t> offset(blocks);
  each_block([&](std::size_t blk, std::size_t lo, std::size_t hi) {
    std::size_t count = 0;
    for (std::size_t i = lo; i < hi; ++i)
      count += index.positions(a[i]).size();
    offset[blk] = count;
  });
  size(parallel::scan_add(offset));
  each_block([&](std::size_t blk, std::size_t lo, std::size_t hi) {
    std::size_t p = offset[blk];
    for (std::size_t i = lo; i < hi; ++i) {
      const std::span<const std::uint32_t> js = index.positions(a[i]);
      // j descending within equal i: later j first.
      for (std::size_t k = js.size(); k > 0; --k)
        put(p++, static_cast<std::uint32_t>(i), js[k - 1]);
    }
  });
}

}  // namespace

std::vector<MatchPair> match_pairs(const std::vector<std::uint32_t>& a,
                                   const std::vector<std::uint32_t>& b) {
  std::vector<MatchPair> pairs;
  MatchPair* out = nullptr;
  emit_pairs(
      a, b,
      [&](std::size_t total) {
        pairs.resize(total);
        out = pairs.data();
      },
      [&](std::size_t p, std::uint32_t i, std::uint32_t j) {
        out[p] = {i, j};
      });
  return pairs;
}

MatchPairsSoA match_pairs_soa(const std::vector<std::uint32_t>& a,
                              const std::vector<std::uint32_t>& b) {
  MatchPairsSoA pairs;
  std::uint32_t *is = nullptr, *js = nullptr;
  emit_pairs(
      a, b,
      [&](std::size_t total) {
        pairs.i.resize(total);
        pairs.j.resize(total);
        is = pairs.i.data();
        js = pairs.j.data();
      },
      [&](std::size_t p, std::uint32_t i, std::uint32_t j) {
        is[p] = i;
        js[p] = j;
      });
  return pairs;
}

std::vector<std::uint32_t> match_pairs_j(const std::vector<std::uint32_t>& a,
                                         const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> js;
  std::uint32_t* out = nullptr;
  emit_pairs(
      a, b,
      [&](std::size_t total) {
        js.resize(total);
        out = js.data();
      },
      [&](std::size_t p, std::uint32_t, std::uint32_t j) { out[p] = j; });
  return js;
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

// Hunt–Szymanski thresholds are the patience tails of the j stream:
// pairs in (i asc, j desc) order never chain onto a pair with the same
// i, so LCS over the pairs is LIS over their j coordinates (Sec. 3,
// Fig. 2(f)), and the lis key-stream core solves it.
LcsResult from_keys(lis::LisResult&& r) {
  return {r.length, r.stats, std::move(r.dp), r.path};
}

// The AoS entry points only need the j stream: peel it off once.
std::vector<std::uint32_t> j_stream(const std::vector<MatchPair>& pairs) {
  std::vector<std::uint32_t> js(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) js[p] = pairs[p].j;
  return js;
}

}  // namespace

LcsResult lcs_sparse_seq(const std::vector<MatchPair>& pairs) {
  return from_keys(lis::keys_sequential<std::uint32_t>(j_stream(pairs)));
}

LcsResult lcs_sparse_seq(const MatchPairsSoA& pairs) {
  return from_keys(lis::keys_sequential<std::uint32_t>(pairs.j));
}

LcsResult lcs_parallel(const std::vector<MatchPair>& pairs) {
  return from_keys(
      lis::keys_parallel<std::uint32_t>(j_stream(pairs), "lcs.round"));
}

LcsResult lcs_parallel(const MatchPairsSoA& pairs) {
  return from_keys(lis::keys_parallel<std::uint32_t>(pairs.j, "lcs.round"));
}

LcsResult lcs_auto(std::span<const std::uint32_t> js) {
  return from_keys(lis::keys_auto<std::uint32_t>(js, "lcs.round"));
}

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
  // The patience step lcs_sparse_seq runs, in the same (i asc, j desc)
  // pair order: the frontier after (prefix ++ suffix) is bitwise the
  // frontier the sequential algorithm would reach on the concatenation.
  for (std::size_t ai = 0; ai < count; ++ai) {
    const std::span<const std::uint32_t> positions =
        index.positions(a_suffix[ai]);
    for (std::size_t k = positions.size(); k > 0; --k) {
      lis::patience_push(f.thresholds, positions[k - 1]);
      ++f.pairs_consumed;
      ++stats.states;
      ++stats.relaxations;
    }
  }
  f.a_consumed += count;
}

}  // namespace cordon::lcs
