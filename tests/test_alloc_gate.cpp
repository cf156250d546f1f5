// Allocation gate for the service fast path.
//
// Replaces global operator new with a counting interposer and asserts
// that a WARM CordonService::submit cache hit performs ZERO heap
// allocations on the keying/solve path: the measured count per warm hit
// must be (a) independent of the instance size — proving the probe
// encodes its byte key into a reused buffer and no solver code runs —
// and (b) bounded by the small constant that is entirely std::future /
// result plumbing (promise shared state, the SolveResult copies handed
// across it).  Any regression that re-introduces a per-probe key buffer,
// a per-probe solver allocation, or an accidental O(n) copy trips one of
// the two assertions.  The instances are lis values and dag edges, whose
// keys grow with n (a glws key is three scalars at any n, so it could
// not tell a size-dependent probe from a constant one).
//
// Own main(): the interposer must own the whole binary, and the pool /
// service must start exactly where the test dictates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/engine/instance.hpp"
#include "src/engine/registry.hpp"
#include "src/service/service.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (size + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1)))
    return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

namespace engine = cordon::engine;
namespace service = cordon::service;

// Allocations performed by one warm submit+get of `inst`, with the
// instance copy and hand-off prepared OUTSIDE the measured window (the
// copy is the caller's, not the service's).
std::uint64_t warm_hit_allocs(service::CordonService& svc,
                              const engine::Instance& inst) {
  engine::Instance probe = inst;
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  engine::SolveResult r = svc.submit(std::move(probe)).get();
  std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_GT(r.stats.states + r.stats.rounds, 0u);
  return after - before;
}

TEST(AllocGate, WarmSubmitHitIsSizeIndependentAndConstant) {
  service::CordonService svc({.max_batch = 8, .cache_capacity = 64});
  for (const char* kind : {"lis", "dag"}) {
    const engine::Solver& solver = engine::builtin_registry().at(kind);
    engine::Instance small = solver.generate({256, 4, 11});
    engine::Instance large = solver.generate({4096, 4, 11});
    ASSERT_GT(engine::canonical_key(large).text.size(),
              8 * engine::canonical_key(small).text.size())
        << kind << ": the two keys must differ in size for (a) to mean "
                   "anything";

    // Cold solves populate the cache; a first warm round also faults in
    // every lazy singleton on the path (locale facets, gtest internals)
    // and grows the thread's key buffer to the larger key.
    (void)svc.submit(small).get();
    (void)svc.submit(large).get();
    (void)warm_hit_allocs(svc, small);
    (void)warm_hit_allocs(svc, large);

    const std::uint64_t hits_before = svc.stats().cache.hits;
    std::uint64_t hit_small = warm_hit_allocs(svc, small);
    std::uint64_t hit_large = warm_hit_allocs(svc, large);
    EXPECT_EQ(svc.stats().cache.hits, hits_before + 2) << kind;

    // (a) zero allocations on the keying and solve path: a 16x larger
    // instance, with a key over 8x longer, makes exactly as many.
    EXPECT_EQ(hit_small, hit_large) << kind;

    // (b) the remaining constant is future/result plumbing only.
    // Measured ~4 on libstdc++; 12 leaves slack for other standard
    // libraries without letting a real leak slip through.
    EXPECT_LE(hit_large, 12u) << kind;
  }
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
