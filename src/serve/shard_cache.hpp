// Sharded LRU cache: N independent support::LruCache shards, each behind its
// own mutex, shard chosen by the key's hash. Concurrent callers on different
// shards never contend; capacity is split across shards (shard count is
// clamped down to the capacity when needed) with the remainder distributed
// one-per-shard, so the per-shard capacities sum to exactly the requested
// global bound. The hit path performs no allocations — keys are hashed and
// compared in place, which is what keeps a warm service query at nanoseconds
// (serve.cache_hit_ns in `lambbench/run.py --workload warm-serve --trace 1`).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "support/check.hpp"
#include "support/lru.hpp"

namespace lamb::serve {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  ShardedLruCache(std::size_t capacity, std::size_t shard_count)
      : shards_() {
    LAMB_CHECK(shard_count >= 1, "cache needs at least one shard");
    if (capacity > 0) {
      shard_count = std::min(shard_count, capacity);
    }
    const std::size_t per_shard = capacity == 0 ? 0 : capacity / shard_count;
    const std::size_t remainder = capacity == 0 ? 0 : capacity % shard_count;
    shards_.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
      // The first `remainder` shards take one extra slot, so the aggregate
      // bound is exactly `capacity` (10 over 4 shards = 3+3+2+2, not 4*2).
      shards_.push_back(std::make_unique<Shard>(per_shard +
                                                (i < remainder ? 1 : 0)));
    }
  }

  std::optional<Value> get(const Key& key) {
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.cache.get(key);
  }

  void put(const Key& key, Value value) {
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.cache.put(key, std::move(value));
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      total += shard->cache.size();
    }
    return total;
  }

  /// Aggregate bound: the per-shard capacities sum to the requested one.
  std::size_t capacity() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->cache.capacity();
    }
    return total;
  }

  std::uint64_t hits() const { return sum(&Shard::hits); }
  std::uint64_t misses() const { return sum(&Shard::misses); }

  /// Drops every entry and resets the hit/miss counters (mirrors
  /// support::LruCache::clear(), which the per-shard call performs).
  void clear() {
    for (const auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      shard->cache.clear();
    }
  }

 private:
  struct Shard {
    explicit Shard(std::size_t capacity) : cache(capacity) {}
    std::uint64_t hits() const { return cache.hits(); }
    std::uint64_t misses() const { return cache.misses(); }

    mutable std::mutex mutex;
    support::LruCache<Key, Value, Hash> cache;
  };

  Shard& shard_for(const Key& key) {
    return *shards_[Hash{}(key) % shards_.size()];
  }

  std::uint64_t sum(std::uint64_t (Shard::*counter)() const) const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      total += (*shard.*counter)();
    }
    return total;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace lamb::serve
