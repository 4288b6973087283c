// Sharded LRU cache: N independent support::LruCache shards, each behind its
// own mutex, shard chosen by `Hash{}(key) & (N - 1)`. Concurrent callers on
// different shards never contend. N is the requested shard count, clamped
// down to the capacity when needed and then rounded down to a power of two,
// so picking a shard takes a mask, not a division. Capacity is split across
// the shards, with the remainder spread one per shard, so the per-shard
// capacities sum to exactly the requested bound.
//
// Each call hashes its key once and hands the hash to the shard, whose flat
// slot array and open-addressing index mix it again before use; a caller
// that probes and then stores the same key (serve::SelectionService's warm
// path) hashes it once for both through the get/put overloads that take the
// hash. A get or a put on a full shard allocates nothing beyond copying the
// key and value, so with trivially copyable ones (the service's value keys)
// a warm service query stays off the heap. `lambbench/run.py --workload
// warm-serve --trace 1` times it as serve.cache_hit_ns and
// serve.atlas_answer_ns.
#pragma once

#include <algorithm>
#include <bit>
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
    shard_count = std::bit_floor(shard_count);
    mask_ = shard_count - 1;
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

  std::optional<Value> get(const Key& key) { return get(key, Hash{}(key)); }
  /// As get(key), with `hash` == Hash{}(key) already computed.
  std::optional<Value> get(const Key& key, std::size_t hash) {
    Shard& shard = shard_for(hash);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.cache.get(key, hash);
  }

  void put(const Key& key, Value value) {
    put(key, Hash{}(key), std::move(value));
  }
  /// As put(key, value), with `hash` == Hash{}(key) already computed.
  void put(const Key& key, std::size_t hash, Value value) {
    Shard& shard = shard_for(hash);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.cache.put(key, hash, std::move(value));
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

  Shard& shard_for(std::size_t hash) { return *shards_[hash & mask_]; }

  std::uint64_t sum(std::uint64_t (Shard::*counter)() const) const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      total += (*shard.*counter)();
    }
    return total;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t mask_ = 0;  ///< shards_.size() - 1, a power of two less one
};

}  // namespace lamb::serve
