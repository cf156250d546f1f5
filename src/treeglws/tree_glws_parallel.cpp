// Parallel Tree-GLWS (Sec. 5.3.2).
//
// Round anatomy (all convex):
//   * the tentative region is a forest of subtrees whose roots hang off
//     finalized nodes;
//   * prefix-doubling by depth: the t-th substep probes nodes of each
//     subtree with relative depth < 2^t, extracted with the 2D range
//     report (Euler-tour index x tree depth) of Sec. 5.3.1;
//   * a probed node v computes its tentative value against the
//     *persistent* best-decision treap of its subtree root's parent (all
//     finalized candidates of its path) and locates its sentinel depth
//     s_v = first depth where v beats that envelope;
//   * blocking: u is ready iff no proper ancestor v (tentative) has
//     s_v <= depth(u).  We point-write s_v into a min-segment-tree over
//     HLD positions and answer each readiness check with an O(log^2 n)
//     root-path minimum — values outside the probe window are +inf, so no
//     per-round clearing logic leaks across subtrees;
//   * finalized nodes extend their parent's persistent envelope by one
//     convex insert (split / truncate / join on the treap), processed in
//     increasing depth order — sibling branches share every treap node of
//     the common prefix, the O(n^2) -> O~(n) space argument of the paper.
//     (The paper further parallelizes this step with HLD-ordered
//     divide-and-conquer; we keep it ordered within a round and note the
//     substitution in docs/ARCHITECTURE.md, "Substitutions" — work is
//     identical, only the per-round span of this step differs.)
#include <atomic>
#include <limits>
#include <span>

#include "src/core/arena.hpp"
#include "src/core/trace.hpp"
#include "src/parallel/primitives.hpp"
#include "src/structures/hld.hpp"
#include "src/structures/persistent_treap.hpp"
#include "src/structures/range_tree.hpp"
#include "src/structures/segment_tree.hpp"
#include "src/treeglws/tree_glws.hpp"

namespace cordon::treeglws {

using structures::DecisionInterval;
using structures::HeavyLightDecomposition;
using structures::PersistentIntervalTreap;
using structures::RangeTree2D;
using structures::RootedTree;
using structures::SegmentTree;

namespace {

constexpr std::size_t kUnset = std::numeric_limits<std::size_t>::max();

struct MinOp {
  std::size_t operator()(std::size_t a, std::size_t b) const {
    return a < b ? a : b;
  }
};

}  // namespace

TreeGlwsResult tree_glws_parallel(const RootedTree& t, double d0,
                                  const glws::CostFn& w, const glws::EFn& e) {
  const std::size_t n = t.size();
  TreeGlwsResult res;
  res.d.assign(n, std::numeric_limits<double>::infinity());
  res.best.assign(n, t.root);
  res.d[t.root] = d0;
  if (n == 1) {
    res.stats.states = 1;
    return res;
  }

  structures::EulerTour et = build_euler_tour(t);
  const std::vector<std::uint32_t>& depth = t.depth;
  const std::size_t max_depth = t.height;

  // Substrates: subtree+depth window extraction, path-min blocking.
  std::vector<RangeTree2D::Point> pts(n);
  for (std::uint32_t v = 0; v < n; ++v)
    pts[v] = {et.tin[v], depth[v], v};
  RangeTree2D window(std::move(pts));
  HeavyLightDecomposition hld(t);
  SegmentTree<std::size_t, MinOp> sentinel_seg(n, kUnset, MinOp{});

  // Whole-run scratch lives in the worker's arena; the per-round arrays
  // below are reset (rewound or refilled) between rounds, never freed.
  core::Arena& arena = core::worker_arena();
  core::ArenaScope scratch(arena);
  std::span<double> ev = arena.make_span<double>(n, 0.0);
  ev[t.root] = e(d0, t.root);

  core::AtomicDpStats stats;
  auto eval = [&](std::uint32_t u, std::size_t dep) {
    stats.add_relaxations(1);
    return ev[u] + w(depth[u], dep);
  };

  // Persistent envelopes: env[v] = best-decision treap of the path from
  // the root through v (candidates = v and its ancestors).
  PersistentIntervalTreap pool;
  std::vector<PersistentIntervalTreap::Ref> env(
      n, PersistentIntervalTreap::kNil);
  env[t.root] =
      pool.build({{1, max_depth == 0 ? 1 : max_depth, t.root}});

  // Convex insert of freshly finalized candidate u into its parent's
  // envelope (split / truncate straddler / append).
  auto insert_candidate = [&](PersistentIntervalTreap::Ref base,
                              std::uint32_t u) {
    std::size_t lo = depth[u] + 1;
    if (lo > max_depth) return base;
    // First depth >= lo where u beats the envelope.  Convexity: the win
    // set is a suffix of depths, so triple-level find_first plus an
    // in-triple binary search pins it down.
    auto wins_at = [&](std::size_t dep) {
      const DecisionInterval* iv = pool.find(base, dep);
      return iv != nullptr &&
             eval(u, dep) < eval(static_cast<std::uint32_t>(iv->j), dep);
    };
    const DecisionInterval* first = pool.find_first(
        base, [&](const DecisionInterval& iv) {
          std::size_t probe = std::max(iv.r, lo);
          if (probe > iv.r) return false;  // triple entirely below lo
          return eval(u, iv.r) <
                 eval(static_cast<std::uint32_t>(iv.j), iv.r);
        });
    if (first == nullptr) return base;  // u never wins
    std::size_t a = std::max(first->l, lo), b = first->r;
    std::size_t start;
    if (wins_at(a)) {
      start = a;
    } else {
      // lose at a, win at b
      while (a + 1 < b) {
        std::size_t mid = a + (b - a) / 2;
        if (wins_at(mid))
          b = mid;
        else
          a = mid;
      }
      start = b;
    }
    // Keep triples with l < start, truncate the straddler, append u.
    auto [left, right] = pool.split(base, start);
    (void)right;
    PersistentIntervalTreap::Ref out = left;
    if (const DecisionInterval* lastiv = pool.last(out);
        lastiv != nullptr && lastiv->r >= start) {
      DecisionInterval trunc{lastiv->l, start - 1, lastiv->j};
      auto [l2, straddle] = pool.split(out, lastiv->l);
      (void)straddle;
      out = trunc.l <= trunc.r ? pool.insert(l2, trunc) : l2;
    }
    return pool.insert(out, {start, max_depth, static_cast<std::size_t>(u)});
  };

  // Tentative subtree roots of the current round.  Every buffer below is
  // either an arena span (dense per-node scratch, fixed size) or a
  // round-reused vector (dynamic push targets keep their high-water
  // capacity), so the round loop allocates nothing once warm.
  std::vector<std::uint32_t> roots(t.children[t.root].begin(),
                                   t.children[t.root].end());
  std::vector<std::uint32_t> probed;       // all nodes probed this round
  std::span<std::size_t> sentinel = arena.make_span<std::size_t>(n, kUnset);
  std::span<std::uint8_t> ready = arena.make_span<std::uint8_t>(n, std::uint8_t{0});
  std::span<std::size_t> cordon_of = arena.make_span<std::size_t>(n, kUnset);
  std::vector<std::uint32_t> active, still, order, next_roots;

  while (!roots.empty()) {
    stats.add_round();
    telemetry::RoundSpan round_span("treeglws.round", stats);
    probed.clear();

    // Prefix-doubling probe, synchronized across subtrees.  A subtree
    // keeps doubling while its shallowest sentinel (the cordon) is still
    // beyond the probed window — the tree analogue of Alg. 1's
    // "cordon <= r+1" stop test.
    active = roots;
    std::fill(cordon_of.begin(), cordon_of.end(), kUnset);
    for (std::size_t tstep = 1; !active.empty(); ++tstep) {
      still.clear();
      for (std::uint32_t r : active) {
        std::uint32_t base_depth = depth[r];
        std::size_t dlo = base_depth + (std::size_t{1} << (tstep - 1)) - 1;
        std::size_t dhi = base_depth + (std::size_t{1} << tstep) - 2;
        dhi = std::min(dhi, max_depth);
        if (dlo > max_depth) continue;
        std::vector<std::uint32_t> batch = window.report(
            et.tin[r], et.tout[r] - 1, static_cast<std::uint32_t>(dlo),
            static_cast<std::uint32_t>(dhi));
        if (batch.empty()) continue;

        PersistentIntervalTreap::Ref base =
            r == t.root ? env[t.root]
                        : env[t.parent[r]];
        std::atomic<std::size_t> min_sentinel{cordon_of[r]};
        parallel::parallel_for(0, batch.size(), [&](std::size_t k) {
          std::uint32_t v = batch[k];
          stats.add_states(1);
          std::size_t dep = depth[v];
          const DecisionInterval* iv = pool.find(base, dep);
          std::uint32_t u = static_cast<std::uint32_t>(iv->j);
          res.d[v] = eval(u, dep);
          res.best[v] = u;
          ev[v] = e(res.d[v], v);
          // Sentinel: first depth where v would beat the finalized
          // envelope (v can only relax its own descendants).
          const DecisionInterval* first =
              pool.find_first(base, [&](const DecisionInterval& x) {
                if (x.r <= dep) return false;
                return eval(v, x.r) <
                       eval(static_cast<std::uint32_t>(x.j), x.r);
              });
          std::size_t s = kUnset;
          if (first != nullptr) {
            std::size_t a = std::max(first->l, dep + 1), b = first->r;
            auto vwins = [&](std::size_t dd) {
              const DecisionInterval* cur = pool.find(base, dd);
              return eval(v, dd) <
                     eval(static_cast<std::uint32_t>(cur->j), dd);
            };
            if (vwins(a)) {
              s = a;
            } else {
              while (a + 1 < b) {
                std::size_t mid = a + (b - a) / 2;
                if (vwins(mid))
                  b = mid;
                else
                  a = mid;
              }
              s = b;
            }
          }
          sentinel[v] = s;
          if (s != kUnset) {
            std::size_t cur = min_sentinel.load(std::memory_order_relaxed);
            while (s < cur && !min_sentinel.compare_exchange_weak(
                                  cur, s, std::memory_order_relaxed)) {
            }
          }
        });
        for (std::uint32_t v : batch) probed.push_back(v);  // lint: allow-alloc (high-water scratch, reused across rounds)
        cordon_of[r] = min_sentinel.load(std::memory_order_relaxed);
        // Keep doubling while the cordon (if any) is still beyond the
        // window: nodes up to cordon-1 on this subtree's paths may be
        // ready and must be probed this round.
        if (dhi < max_depth && (cordon_of[r] == kUnset || cordon_of[r] > dhi + 1)) {
          still.push_back(r);  // lint: allow-alloc (warm swap buffer)
        }
      }
      std::swap(active, still);  // both buffers stay warm
    }


    // Blocking: write sentinel depths into the HLD segment tree, then a
    // root-path minimum tells each probed node whether any (tentative)
    // proper ancestor would relax at or above its depth.
    for (std::uint32_t v : probed)
      if (sentinel[v] != kUnset) sentinel_seg.set(hld.pos(v), sentinel[v]);
    parallel::parallel_for(0, probed.size(), [&](std::size_t k) {
      std::uint32_t v = probed[k];
      std::size_t min_s = kUnset;
      if (v != t.root && t.parent[v] != structures::kNoNode) {
        std::uint32_t p = t.parent[v];
        hld.for_each_root_path_segment(p, [&](std::uint32_t lo,
                                              std::uint32_t hi) {
          min_s = std::min(min_s, sentinel_seg.query(lo, hi));
        });
      }
      ready[v] = min_s > depth[v] ? 1 : 0;
    });
    for (std::uint32_t v : probed)
      if (sentinel[v] != kUnset) sentinel_seg.set(hld.pos(v), kUnset);

    // Extend envelopes top-down over the newly finalized forest and
    // collect next round's subtree roots.
    next_roots.clear();
    // Process ready nodes in increasing depth so parents are done first.
    order.clear();
    order.reserve(probed.size());  // lint: allow-alloc (high-water scratch, reused across rounds)
    for (std::uint32_t v : probed)
      if (ready[v]) order.push_back(v);  // lint: allow-alloc (within reserved capacity)
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return depth[a] < depth[b];
              });
    for (std::uint32_t v : order)
      env[v] = insert_candidate(env[t.parent[v]], v);
    for (std::uint32_t v : order)
      for (std::uint32_t c : t.children[v])
        if (!ready[c]) next_roots.push_back(c);  // lint: allow-alloc (high-water scratch, reused across rounds)
    // Subtree roots that stayed blocked roll over to the next round.
    for (std::uint32_t r : roots)
      if (!ready[r]) next_roots.push_back(r);  // lint: allow-alloc (high-water scratch, reused across rounds)

    // Reset per-round scratch.
    for (std::uint32_t v : probed) {
      sentinel[v] = kUnset;
      ready[v] = 0;
    }
    std::swap(roots, next_roots);
  }

  res.stats = stats.snapshot();
  return res;
}

}  // namespace cordon::treeglws
