// A bounded, mutex-sharded LRU cache of homomorphism results.
//
// The preservation pipeline, core computation, and UCQ evaluation issue
// thousands of near-identical homomorphism probes: minimal-model checks
// re-evaluate the same quotient images, the core loop's final IsCore pass
// repeats every retract probe of the last iteration, and the exhaustive
// verification scan asks each UCQ disjunct about structures it has
// already seen. This cache memoizes the *answers* (has-hom / count) —
// never witnesses — keyed by the 64-bit value fingerprints of the two
// structures (Structure::Fingerprint) plus a digest of the
// answer-relevant options (surjective, forced pairs, count limit).
//
// Soundness: a fingerprint is a pure function of a structure's value and
// is invalidated by the same mutations that invalidate the relation
// index, so a stale entry can only be read through a 64-bit collision
// (probability ~2^-64 per distinct pair). Engine-selection options
// (use_arc_consistency, use_index, num_threads, factorize) are *excluded*
// from the key: the engines are bit-identical on has/count by contract,
// so they share entries. Only completed (Done) results are ever stored —
// an exhausted search caches nothing.
//
// Caching is opt-in per call site (EngineConfig::use_cache, default
// off): the differential test harnesses compare engines against each
// other and must not let one engine's memoized answer mask another's
// bug.
//
// Storage is a ShardedLru (base/sharded_lru.h) of 16 shards x 1024
// entries. An entry's shard depends on the structure pair alone, so
// EvictShardFor drops every answer about that pair.

#ifndef HOMPRES_HOM_HOM_CACHE_H_
#define HOMPRES_HOM_HOM_CACHE_H_

#include <cstdint>
#include <optional>

#include "base/sharded_lru.h"

namespace hompres {

using HomCacheStats = ShardedLruStats;

class HomCache {
 public:
  // What question the cached value answers.
  enum class Kind : uint8_t {
    kHas = 0,    // value: 0 / 1
    kCount = 1,  // value: CountHomomorphisms result under the keyed limit
  };

  // The process-wide cache used by the engine.
  static HomCache& Global();

  // Looks up (source_fp, target_fp, options_digest, kind) and refreshes
  // its LRU position. nullopt = miss. A shard failure (the
  // "hom_cache/lookup" failpoint; a real store would report corruption
  // here) also returns nullopt and sets *failed when non-null, so the
  // caller can distinguish "not cached" from "cache unusable" and evict
  // the shard.
  std::optional<uint64_t> Lookup(uint64_t source_fp, uint64_t target_fp,
                                 uint64_t options_digest, Kind kind,
                                 bool* failed = nullptr);

  // Inserts or refreshes an entry, evicting the shard's LRU tail when
  // full. Returns false when the store was skipped (the
  // "hom_cache/shard_insert" failpoint): the answer is simply not
  // memoized.
  bool Insert(uint64_t source_fp, uint64_t target_fp,
              uint64_t options_digest, Kind kind, uint64_t value);

  // Drops every entry of the shard that would hold (source_fp,
  // target_fp): the degradation ladder's response to a failed lookup
  // (a shard that cannot be read is discarded wholesale rather than
  // trusted).
  void EvictShardFor(uint64_t source_fp, uint64_t target_fp);

  // Drops every entry (tests use this to isolate trials).
  void Clear() { table_.Clear(); }

  HomCacheStats Stats() const { return table_.Stats(); }

 private:
  static constexpr int kNumShards = 16;
  static constexpr int kShardCapacity = 1024;

  struct Key {
    uint64_t source_fp;
    uint64_t target_fp;
    uint64_t options_digest;
    uint8_t kind;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct PairHash {
    size_t operator()(const Key& k) const;
  };

  ShardedLru<Key, uint64_t, KeyHash, PairHash> table_{
      kNumShards, kShardCapacity, "hom_cache/lookup",
      "hom_cache/shard_insert"};
};

}  // namespace hompres

#endif  // HOMPRES_HOM_HOM_CACHE_H_
