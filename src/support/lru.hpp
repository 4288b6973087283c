// Capacity-bounded least-recently-used cache in two flat arrays.
//
// Entries live in a slot array, linked in recency order by 32-bit slot
// indices (head = most recent, tail = least recent). An open-addressing
// index (linear probing, power-of-two size, at most half full) maps a key's
// hash to its slot; an erase shifts the rest of its probe run back, so the
// index keeps no tombstones. Both arrays grow with the entries held, never
// to the capacity up front. Once the cache is full, an insert reuses the
// tail slot in place, so get() and put() on a full cache allocate nothing
// beyond what copying the key and value does.
//
// The index mixes the caller's hash (support::mix64) before taking its low
// bits: serve::ShardedLruCache picks a shard by `hash % shards`, which leaves
// those bits equal for every key in one shard.
//
// Not synchronised — callers that share a cache across threads wrap it in a
// mutex (serve/ stripes many of these behind per-shard mutexes,
// MeasuredMachine keeps a single private one). `capacity == 0` means
// unbounded, for callers that only want the counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace lamb::support {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  /// Most entries one cache holds (slot indices are 32-bit).
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 30;

  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    LAMB_CHECK(capacity <= kMaxEntries, "LRU capacity too large");
  }

  /// Returns the cached value and marks it most-recently-used.
  std::optional<Value> get(const Key& key) { return get(key, Hash{}(key)); }
  /// As get(key), with `hash` == Hash{}(key) already computed.
  std::optional<Value> get(const Key& key, std::size_t hash) {
    const std::uint32_t s = find(key, mix(hash));
    if (s == kNone) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    touch(s);
    return slots_[s].value;
  }

  /// Inserts or overwrites; past capacity the least-recently-used entry's
  /// slot takes the new one.
  void put(const Key& key, Value value) {
    put(key, Hash{}(key), std::move(value));
  }
  /// As put(key, value), with `hash` == Hash{}(key) already computed.
  void put(const Key& key, std::size_t hash, Value value) {
    const std::uint32_t h = mix(hash);
    std::uint32_t s = find(key, h);
    if (s != kNone) {
      slots_[s].value = std::move(value);
      touch(s);
      return;
    }
    if (capacity_ > 0 && slots_.size() == capacity_) {
      s = tail_;
      unindex(s);
      unlink(s);
      Slot& slot = slots_[s];
      slot.key = key;
      slot.value = std::move(value);
      slot.hash = h;
    } else {
      LAMB_CHECK(slots_.size() < kMaxEntries, "LRU cache is full");
      reserve_one();
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{key, std::move(value), h, kNone, kNone});
    }
    index(s);
    link_front(s);
  }

  std::size_t size() const { return slots_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  /// Drops every entry and resets the hit/miss counters — a cleared cache
  /// reports a fresh hit rate instead of one skewed by its previous life
  /// (serve/'s cache-hit-rate reporting depends on this). The arrays keep
  /// their memory for the entries that refill them.
  void clear() {
    slots_.clear();
    std::fill(index_.begin(), index_.end(), Bucket{});
    head_ = kNone;
    tail_ = kNone;
    hits_ = 0;
    misses_ = 0;
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Slot {
    Key key;
    Value value;
    std::uint32_t hash;  ///< mixed; its low bits pick the home bucket
    std::uint32_t prev;  ///< toward the head (more recent)
    std::uint32_t next;  ///< toward the tail (less recent)
  };
  /// The slot's hash rides along, so a probe skips other keys without
  /// touching their slots.
  struct Bucket {
    std::uint32_t slot = kNone;
    std::uint32_t hash = 0;
  };

  static std::uint32_t mix(std::size_t hash) {
    return static_cast<std::uint32_t>(mix64(hash));
  }

  std::uint32_t find(const Key& key, std::uint32_t h) const {
    if (index_.empty()) {
      return kNone;
    }
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Bucket& b = index_[i];
      if (b.slot == kNone) {
        return kNone;
      }
      if (b.hash == h && slots_[b.slot].key == key) {
        return b.slot;
      }
    }
  }

  /// Grows the slot array by doubling, never past the capacity, and keeps
  /// the index at most half full once one more entry is in.
  void reserve_one() {
    const std::size_t n = slots_.size() + 1;
    if (n > slots_.capacity()) {
      std::size_t want = std::max<std::size_t>(8, 2 * slots_.size());
      if (capacity_ > 0) {
        want = std::min(want, capacity_);
      }
      slots_.reserve(want);
    }
    if (2 * n > index_.size()) {
      index_.assign(std::max<std::size_t>(16, 2 * index_.size()), Bucket{});
      mask_ = index_.size() - 1;
      for (std::uint32_t s = 0; s < slots_.size(); ++s) {
        index(s);
      }
    }
  }

  void index(std::uint32_t s) {
    std::size_t i = slots_[s].hash & mask_;
    while (index_[i].slot != kNone) {
      i = (i + 1) & mask_;
    }
    index_[i] = Bucket{s, slots_[s].hash};
  }

  /// Removes slot `s` from the index. Each later entry of the probe run
  /// moves into the hole when the hole lies between its home bucket and
  /// where it sits, which keeps every entry reachable from its home.
  void unindex(std::uint32_t s) {
    std::size_t hole = slots_[s].hash & mask_;
    while (index_[hole].slot != s) {
      hole = (hole + 1) & mask_;
    }
    for (std::size_t j = (hole + 1) & mask_; index_[j].slot != kNone;
         j = (j + 1) & mask_) {
      const std::size_t home = index_[j].hash & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = Bucket{};
  }

  void unlink(std::uint32_t s) {
    const Slot& slot = slots_[s];
    (slot.prev == kNone ? head_ : slots_[slot.prev].next) = slot.next;
    (slot.next == kNone ? tail_ : slots_[slot.next].prev) = slot.prev;
  }

  void link_front(std::uint32_t s) {
    Slot& slot = slots_[s];
    slot.prev = kNone;
    slot.next = head_;
    (head_ == kNone ? tail_ : slots_[head_].prev) = s;
    head_ = s;
  }

  void touch(std::uint32_t s) {
    if (s != head_) {
      unlink(s);
      link_front(s);
    }
  }

  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::vector<Bucket> index_;
  std::size_t mask_ = 0;
  std::uint32_t head_ = kNone;
  std::uint32_t tail_ = kNone;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace lamb::support
