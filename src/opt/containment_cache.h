// A bounded, mutex-sharded LRU cache of CQ containment verdicts.
//
// The UCQ optimizer (opt/optimizer.h) answers thousands of pairwise
// containment questions, and across a preservation run — or a batch of
// hompresd requests — the same pairs of (canonicalized) disjuncts recur
// constantly: Theorem 3.1 materializes one canonical CQ per minimal
// model, and most of them are renamings or specializations of a few
// patterns. This cache memoizes the boolean verdict "q1 ⊆ q2", keyed by
// the pair of canonical CQ fingerprints (opt/canonical.h), alongside
// the structure-level HomCache (hom/hom_cache.h).
//
// Soundness (see DESIGN.md §4.9): a ConjunctiveQuery is immutable after
// construction — it owns its canonical Structure and exposes only const
// access — so a CQ fingerprint can never go stale the way a raw
// Structure fingerprint must be invalidation-tracked. Two queries with
// equal fingerprints are the same canonical form up to a ~2^-64 hash
// collision, the same risk the HomCache already accepts. Verdicts are
// only inserted for searches that ran to completion; the optimizer
// never caches an exhausted probe.
//
// Storage is a ShardedLru (base/sharded_lru.h) of 16 shards. Its
// capacity defaults to kDefaultShardCapacity entries per shard and is
// set per instance with SetTotalCapacity (hompresd's
// --containment-cache-capacity knob sets the global instance's).

#ifndef HOMPRES_OPT_CONTAINMENT_CACHE_H_
#define HOMPRES_OPT_CONTAINMENT_CACHE_H_

#include <cstdint>
#include <optional>

#include "base/sharded_lru.h"

namespace hompres {

using ContainmentCacheStats = ShardedLruStats;

class ContainmentCache {
 public:
  // The process-wide cache used by the optimizer entry points.
  static ContainmentCache& Global();

  // Looks up the verdict for "fp1 ⊆ fp2" and refreshes its LRU
  // position. nullopt = miss. A shard failure (the
  // "containment_cache/lookup" failpoint; a real store would report
  // corruption here) also returns nullopt and sets *failed when
  // non-null, so the caller can distinguish "not cached" from "cache
  // unusable" and evict the shard.
  std::optional<bool> Lookup(uint64_t fp1, uint64_t fp2,
                             bool* failed = nullptr);

  // Inserts or refreshes a verdict, evicting the shard's LRU tail when
  // full. Returns false when the store was skipped (the
  // "containment_cache/insert" failpoint): the verdict is simply not
  // memoized.
  bool Insert(uint64_t fp1, uint64_t fp2, bool contained);

  // Drops every entry of the shard that would hold (fp1, fp2): the
  // degradation ladder's response to a failed lookup.
  void EvictShardFor(uint64_t fp1, uint64_t fp2);

  // Drops every entry (tests use this to isolate trials).
  void Clear() { table_.Clear(); }

  // Caps this cache at `total_entries` across all shards (rounded up to
  // one entry per shard). Existing shards over the new cap shed their
  // LRU tails on their next insert.
  void SetTotalCapacity(uint64_t total_entries) {
    table_.SetShardCapacity(total_entries / kNumShards);
  }
  uint64_t TotalCapacity() const {
    return table_.ShardCapacity() * kNumShards;
  }

  ContainmentCacheStats Stats() const { return table_.Stats(); }

  static constexpr int kNumShards = 16;
  static constexpr int kDefaultShardCapacity = 1024;

 private:
  struct Key {
    uint64_t fp1;
    uint64_t fp2;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  ShardedLru<Key, bool, KeyHash> table_{
      kNumShards, kDefaultShardCapacity, "containment_cache/lookup",
      "containment_cache/insert"};
};

}  // namespace hompres

#endif  // HOMPRES_OPT_CONTAINMENT_CACHE_H_
