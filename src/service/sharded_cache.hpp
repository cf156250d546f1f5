// ShardedLruCache: the service layer's result cache.
//
// A fixed array of independent LRU shards, each an intrusive
// list + hash-map pair behind its own mutex.  A key's 64-bit hash picks
// the shard (high bits, so shard choice is independent of the hash-map's
// bucket choice) AND is stored alongside every entry as the primary
// index: a probe walks the (almost always empty or single-element)
// bucket of entries sharing the full 64-bit hash and only then decides
// equality on the full key bytes — so a MISS never touches key bytes at
// all, and a hit compares them exactly once.  A hash collision can never
// return the wrong entry, only cost one extra comparison.
//
// The comparison runs OUTSIDE the shard lock: the probe snapshots the
// candidate keys' shared_ptr handles under the mutex (refcount bumps,
// no allocation), compares unlocked — a key can be tens of kilobytes,
// and comparing it must not serialize other clients of the shard — and
// re-locks to refresh recency and copy the value, tolerating a
// concurrent eviction by reporting a miss.
//
// Threading: every public method is safe to call concurrently from any
// number of threads; only one shard's mutex is held at a time and no
// method blocks on more than one shard (stats/size/clear visit shards
// one by one, so they are monotonic snapshots, not a single atomic
// cut — fine for monitoring).  Values are returned by copy so no
// reference escapes a shard lock.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/audit.hpp"
#include "src/core/dp_stats.hpp"
#include "src/core/fault.hpp"

namespace cordon::service {

template <typename Value>
class ShardedLruCache {
 public:
  /// `capacity` is the total entry budget, split evenly across `shards`
  /// (each shard holds at least one entry, so the effective total is
  /// max(capacity, shards) rounded up to a multiple of the shard count).
  explicit ShardedLruCache(std::size_t capacity, std::size_t shards = 16)
      : shards_(shards == 0 ? 1 : shards) {
    std::size_t per_shard = (capacity + shards_.size() - 1) / shards_.size();
    per_shard_capacity_ = per_shard == 0 ? 1 : per_shard;
    for (auto& s : shards_) s = std::make_unique<Shard>();
  }

  /// Hash-first probe: entries whose stored 64-bit hash equals `hash`
  /// are compared with `key` — outside the shard lock — until one
  /// matches.  Returns a copy of that entry's value (refreshing its
  /// recency); nullopt when the hash bucket is empty or no candidate
  /// matches.  A bucket miss compares no key bytes at all.  At most
  /// kMaxProbe candidates are compared; a 5-way full-64-bit-hash
  /// collision (never, in practice) degrades to a miss, not a wrong
  /// value.  An entry evicted between the snapshot and the re-lock also
  /// reports a miss.
  [[nodiscard]] std::optional<Value> get(std::uint64_t hash,
                                         std::string_view key) {
    Shard& s = shard(hash);
    std::array<KeyHandle, kMaxProbe> cand;
    std::size_t n = 0;
    {
      std::lock_guard lock(s.mu);
      auto [lo, hi] = s.index.equal_range(hash);
      for (auto it = lo; it != hi && n < kMaxProbe; ++it)
        cand[n++] = it->second->key;
      if (n == 0) {
        ++s.stats.misses;
        return std::nullopt;
      }
    }
    // The comparison runs with no lock held; the shared_ptr keeps the
    // key alive even if the entry is evicted meanwhile.
    KeyHandle matched;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::string_view(*cand[i]) == key) {
        matched = cand[i];
        break;
      }
    }
    std::lock_guard lock(s.mu);
    if (matched != nullptr) {
      auto [lo, hi] = s.index.equal_range(hash);
      for (auto it = lo; it != hi; ++it) {
        if (it->second->key == matched) {
          ++s.stats.hits;
          s.lru.splice(s.lru.begin(), s.lru, it->second);  // move to front
          return it->second->value;
        }
      }
    }
    ++s.stats.misses;
    return std::nullopt;
  }

  /// Inserts (or refreshes) (hash, key) -> value, evicting the shard's
  /// least recently used UNPINNED entry when the shard is at capacity.
  void put(std::uint64_t hash, std::string key, Value value) {
    put_impl(hash, std::move(key), std::move(value), /*pin_it=*/false);
  }

  /// put() + pin() in one critical section: the entry is inserted (or
  /// refreshed) with its pin count raised by one, so it can never be
  /// evicted between the insert and a separate pin call.
  void put_pinned(std::uint64_t hash, std::string key, Value value) {
    put_impl(hash, std::move(key), std::move(value), /*pin_it=*/true);
  }

  /// Raises the entry's pin count; a pinned entry is skipped by LRU
  /// eviction (sessions pin their base result so a burst of unrelated
  /// traffic cannot evict the state the whole lineage re-probes).
  /// Returns false when (hash, key) is not resident.
  bool pin(std::uint64_t hash, std::string_view key) {
    return adjust_pins(hash, key, +1);
  }

  /// Lowers the pin count (saturating at zero); the entry re-enters
  /// normal LRU eviction once every pin is released.  Returns false
  /// when (hash, key) is not resident.
  bool unpin(std::uint64_t hash, std::string_view key) {
    return adjust_pins(hash, key, -1);
  }

  /// Entries currently pinned, across shards (monitoring snapshot).
  [[nodiscard]] std::size_t pinned() const {
    std::size_t n = 0;
    for (const auto& s : shards_) {
      std::lock_guard lock(s->mu);
      for (const Entry& e : s->lru) n += e.pins > 0 ? 1 : 0;
    }
    return n;
  }

  /// Aggregated counters across shards (monotonic snapshot).
  [[nodiscard]] core::CacheStats stats() const {
    core::CacheStats out;
    for (const auto& s : shards_) {
      std::lock_guard lock(s->mu);
      out += s->stats;
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : shards_) {
      std::lock_guard lock(s->mu);
      n += s->lru.size();
    }
    return n;
  }

  void clear() {
    for (const auto& s : shards_) {
      std::lock_guard lock(s->mu);
      s->index.clear();
      s->lru.clear();
    }
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return per_shard_capacity_ * shards_.size();
  }

 private:
  /// Candidates sharing one full 64-bit hash that a single probe will
  /// compare; beyond this the probe reports a miss (safe: re-solve).
  static constexpr std::size_t kMaxProbe = 4;

  // shared so a probe can keep comparing against a key after the shard
  // lock is dropped (and even after the entry is evicted).
  using KeyHandle = std::shared_ptr<const std::string>;

  struct Entry {
    std::uint64_t hash;
    KeyHandle key;
    Value value;
    std::uint32_t pins = 0;  // > 0 exempts the entry from eviction
  };

  // The stored hashes are full 64-bit hashes already: feed them through.
  struct IdentityHash {
    std::size_t operator()(std::uint64_t h) const noexcept {
      return static_cast<std::size_t>(h);
    }
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_multimap<std::uint64_t, typename std::list<Entry>::iterator,
                            IdentityHash>
        index;  // full-hash buckets; list iterators stay stable
    core::CacheStats stats;
  };

  Shard& shard(std::uint64_t hash) {
    // High bits: independent of the multimap's low-bit bucket choice.
    return *shards_[(hash >> 48) % shards_.size()];
  }

  void put_impl(std::uint64_t hash, std::string key, Value value,
                bool pin_it) {
    Shard& s = shard(hash);
    std::lock_guard lock(s.mu);
    auto [lo, hi] = s.index.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
      if (std::string_view(*it->second->key) == std::string_view(key)) {
        it->second->value = std::move(value);
        if (pin_it) ++it->second->pins;
        s.lru.splice(s.lru.begin(), s.lru, it->second);
        return;
      }
    }
    // Chaos: simulate memory pressure by evicting one extra (unpinned)
    // entry before the insert.  Pins still protect session bases.
    if (CORDON_FAULT_CHECK(core::fault::Site::kCacheEvict))
      evict_one_locked(s);
    if (s.lru.size() >= per_shard_capacity_) evict_one_locked(s);
    s.lru.push_front(Entry{
        hash, std::make_shared<const std::string>(std::move(key)),
        std::move(value), pin_it ? 1u : 0u});
    s.index.emplace(hash, s.lru.begin());
    ++s.stats.insertions;
  }

  /// Drops the least recently used entry with no pins.  When EVERY
  /// resident entry is pinned the shard grows past its capacity instead
  /// — a session base must outlive arbitrary unrelated traffic, and the
  /// overshoot is bounded by the number of open sessions.
  void evict_one_locked(Shard& s) {
    for (auto it = s.lru.end(); it != s.lru.begin();) {
      --it;
      if (it->pins > 0) continue;
      auto [elo, ehi] = s.index.equal_range(it->hash);
      for (auto eit = elo; eit != ehi; ++eit) {
        if (eit->second == it) {
          s.index.erase(eit);
          break;
        }
      }
      s.lru.erase(it);
      ++s.stats.evictions;
      return;
    }
  }

  bool adjust_pins(std::uint64_t hash, std::string_view key, int delta) {
    Shard& s = shard(hash);
    std::lock_guard lock(s.mu);
    auto [lo, hi] = s.index.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
      if (std::string_view(*it->second->key) == key) {
        if (delta > 0) {
          ++it->second->pins;
        } else {
          // The public contract saturates at zero, but a zero-pin unpin
          // means some owner released a pin it never took (or twice) —
          // exactly the imbalance that would let a session base get
          // evicted under a live lineage.  Fail loudly in audit builds.
          CORDON_DCHECK(it->second->pins > 0,
                        "cache pin refcount would go negative");
          if (it->second->pins > 0) --it->second->pins;
        }
        return true;
      }
    }
    return false;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t per_shard_capacity_ = 1;
};

}  // namespace cordon::service
