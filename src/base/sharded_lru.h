// A bounded, mutex-sharded LRU map: the one cache template behind every
// memo of the library (the HomCache of homomorphism answers, the
// ContainmentCache of CQ containment verdicts, the CqFingerprint memo
// and hompresd's optimize-once UCQ memo).
//
// The table is split into independently locked shards so concurrent
// callers do not serialize on one mutex. A key's shard is
// ShardOf{}(key) % num_shards; ShardOf defaults to the key hash, and a
// cache whose keys carry a natural partition (HomCache: the structure
// pair, not the options digest) passes its own so that EvictShardOf can
// drop every entry of that partition at once. Each shard keeps a
// most-recent-first list and a map of iterators into it, so lookup
// refresh and tail eviction are O(1).
//
// Shard count and per-shard capacity are set per instance; the
// capacity can be changed afterwards (SetShardCapacity), and a shard
// over a lowered cap sheds its LRU tail on its next insert. Every
// instance counts its own hits, misses, insertions, evictions and
// failures.
//
// Fault injection: an instance may name a lookup and an insert
// failpoint (base/failpoint.h). A fired lookup failpoint reports the
// shard unreadable (nullopt, *failed = true), so the caller can tell
// "not cached" from "cache unusable" and evict the shard; a fired
// insert failpoint skips the store (Insert returns false).

#ifndef HOMPRES_BASE_SHARDED_LRU_H_
#define HOMPRES_BASE_SHARDED_LRU_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "base/check.h"
#include "base/failpoint.h"

namespace hompres {

struct ShardedLruStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  // Injected/real shard failures: lookups reported failed, insertions
  // skipped, shards dropped by EvictShardOf.
  uint64_t failed_lookups = 0;
  uint64_t failed_insertions = 0;
  uint64_t shard_evictions = 0;

  uint64_t Lookups() const { return hits + misses; }
  // Integer percentage of lookups answered from the cache (0 when no
  // lookup has happened).
  uint64_t HitRatePercent() const {
    const uint64_t lookups = Lookups();
    return lookups == 0 ? 0 : (hits * 100) / lookups;
  }
};

template <typename K, typename V, typename Hash = std::hash<K>,
          typename ShardOf = Hash>
class ShardedLru {
 public:
  // `shard_capacity` is rounded up to one entry. The failpoint names
  // (nullptr = none) must outlive the cache; string literals do.
  ShardedLru(int num_shards, uint64_t shard_capacity,
             const char* lookup_failpoint = nullptr,
             const char* insert_failpoint = nullptr)
      : num_shards_(num_shards),
        shards_(std::make_unique<Shard[]>(static_cast<size_t>(num_shards))),
        lookup_failpoint_(lookup_failpoint),
        insert_failpoint_(insert_failpoint) {
    HOMPRES_CHECK_GE(num_shards, 1);
    SetShardCapacity(shard_capacity);
  }

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  // The cached value, refreshed to most recent; nullopt on a miss or a
  // failed lookup (then *failed is set, when non-null).
  std::optional<V> Lookup(const K& key, bool* failed = nullptr) {
    if (failed != nullptr) *failed = false;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (lookup_failpoint_ != nullptr && HOMPRES_FAILPOINT(lookup_failpoint_)) {
      ++shard.stats.failed_lookups;
      if (failed != nullptr) *failed = true;
      return std::nullopt;
    }
    auto it = shard.table.find(key);
    if (it == shard.table.end()) {
      ++shard.stats.misses;
      return std::nullopt;
    }
    ++shard.stats.hits;
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    return it->second->second;
  }

  // Inserts or refreshes an entry, evicting the shard's LRU tail while
  // the shard is at capacity. False when the store was skipped (the
  // insert failpoint fired).
  bool Insert(const K& key, V value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (insert_failpoint_ != nullptr && HOMPRES_FAILPOINT(insert_failpoint_)) {
      ++shard.stats.failed_insertions;
      return false;
    }
    auto it = shard.table.find(key);
    if (it != shard.table.end()) {
      it->second->second = std::move(value);
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return true;
    }
    const uint64_t capacity = shard_capacity_.load(std::memory_order_relaxed);
    while (shard.table.size() >= capacity && !shard.order.empty()) {
      shard.table.erase(shard.order.back().first);
      shard.order.pop_back();
      ++shard.stats.evictions;
    }
    shard.order.emplace_front(key, std::move(value));
    shard.table.emplace(key, shard.order.begin());
    ++shard.stats.insertions;
    return true;
  }

  // Drops every entry of the shard that holds `key`.
  void EvictShardOf(const K& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.order.clear();
    shard.table.clear();
    ++shard.stats.shard_evictions;
  }

  // Drops every entry; the counters are kept.
  void Clear() {
    for (int i = 0; i < num_shards_; ++i) {
      Shard& shard = shards_[static_cast<size_t>(i)];
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.order.clear();
      shard.table.clear();
    }
  }

  void SetShardCapacity(uint64_t entries) {
    shard_capacity_.store(entries == 0 ? 1 : entries,
                          std::memory_order_relaxed);
  }
  uint64_t ShardCapacity() const {
    return shard_capacity_.load(std::memory_order_relaxed);
  }

  size_t Size() const {
    size_t total = 0;
    for (int i = 0; i < num_shards_; ++i) {
      const Shard& shard = shards_[static_cast<size_t>(i)];
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.table.size();
    }
    return total;
  }

  ShardedLruStats Stats() const {
    ShardedLruStats total;
    for (int i = 0; i < num_shards_; ++i) {
      const Shard& shard = shards_[static_cast<size_t>(i)];
      std::lock_guard<std::mutex> lock(shard.mu);
      total.hits += shard.stats.hits;
      total.misses += shard.stats.misses;
      total.insertions += shard.stats.insertions;
      total.evictions += shard.stats.evictions;
      total.failed_lookups += shard.stats.failed_lookups;
      total.failed_insertions += shard.stats.failed_insertions;
      total.shard_evictions += shard.stats.shard_evictions;
    }
    return total;
  }

 private:
  using Order = std::list<std::pair<K, V>>;

  struct Shard {
    mutable std::mutex mu;
    Order order;  // most recent first
    std::unordered_map<K, typename Order::iterator, Hash> table;
    ShardedLruStats stats;
  };

  Shard& ShardFor(const K& key) {
    const uint64_t h = static_cast<uint64_t>(ShardOf{}(key));
    return shards_[static_cast<size_t>(h % static_cast<uint64_t>(num_shards_))];
  }

  const int num_shards_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> shard_capacity_{1};
  const char* const lookup_failpoint_;
  const char* const insert_failpoint_;
};

}  // namespace hompres

#endif  // HOMPRES_BASE_SHARDED_LRU_H_
