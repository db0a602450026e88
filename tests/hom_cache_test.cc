// Tests for the fingerprint-keyed homomorphism result cache: the raw
// LRU table (hom/hom_cache.h), the Structure fingerprint that keys it,
// and — following the stale-cache trials of relation_index_test — the
// end-to-end guarantee that mutating a structure after a cache hit
// invalidates its entries: cached answers on the mutated structure must
// match an uncached engine on a pristine copy.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "hom/hom_cache.h"
#include "hom/homomorphism.h"
#include "structure/generators.h"
#include "structure/structure.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

TEST(HomCacheTable, InsertLookupClear) {
  HomCache cache;
  EXPECT_FALSE(cache.Lookup(1, 2, 3, HomCache::Kind::kHas).has_value());
  cache.Insert(1, 2, 3, HomCache::Kind::kHas, 1);
  auto hit = cache.Lookup(1, 2, 3, HomCache::Kind::kHas);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 1u);
  // Every key component participates.
  EXPECT_FALSE(cache.Lookup(9, 2, 3, HomCache::Kind::kHas).has_value());
  EXPECT_FALSE(cache.Lookup(1, 9, 3, HomCache::Kind::kHas).has_value());
  EXPECT_FALSE(cache.Lookup(1, 2, 9, HomCache::Kind::kHas).has_value());
  EXPECT_FALSE(cache.Lookup(1, 2, 3, HomCache::Kind::kCount).has_value());
  // Insert on an existing key refreshes the value.
  cache.Insert(1, 2, 3, HomCache::Kind::kHas, 0);
  EXPECT_EQ(*cache.Lookup(1, 2, 3, HomCache::Kind::kHas), 0u);
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(1, 2, 3, HomCache::Kind::kHas).has_value());
}

TEST(HomCacheTable, CapacityIsBoundedAndEvictionIsLru) {
  HomCache cache;
  // 16 shards x 1024 entries; inserting far more distinct keys must
  // evict rather than grow without bound.
  const uint64_t total = 16 * 1024;
  const uint64_t inserted = 3 * total;
  for (uint64_t i = 0; i < inserted; ++i) {
    cache.Insert(i, i * 2 + 1, 7, HomCache::Kind::kHas, i & 1);
  }
  const HomCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions, inserted);
  EXPECT_GE(stats.evictions, inserted - total);
  // Recency protects an entry: touch one old key repeatedly while
  // filling its shard and it must survive where its untouched twin was
  // evicted long ago.
  HomCache lru;
  lru.Insert(42, 42, 0, HomCache::Kind::kHas, 1);
  for (uint64_t i = 0; i < 64 * 1024; ++i) {
    lru.Insert(1000 + i, 2000 + i, 0, HomCache::Kind::kHas, 0);
    ASSERT_TRUE(lru.Lookup(42, 42, 0, HomCache::Kind::kHas).has_value())
        << "refreshed entry evicted after " << i << " inserts";
  }
}

TEST(StructureFingerprint, EqualValuesHashEqualAndMutationsInvalidate) {
  const Vocabulary voc = GraphVocabulary();
  Structure a(voc, 3);
  a.AddTuple(0, {0, 1});
  a.AddTuple(0, {1, 2});
  Structure same(voc, 3);
  same.AddTuple(0, {1, 2});  // different insertion order, same value
  same.AddTuple(0, {0, 1});
  EXPECT_NE(a.Fingerprint(), 0u);
  EXPECT_EQ(a.Fingerprint(), same.Fingerprint());
  // Copies recompute to the same value.
  const Structure copy = a;
  EXPECT_EQ(copy.Fingerprint(), a.Fingerprint());
  // Mutations change the fingerprint (adding a tuple, adding an
  // element), and removing the tuple again restores it.
  const uint64_t before = a.Fingerprint();
  Structure more = a;
  more.AddTuple(0, {2, 0});
  EXPECT_NE(more.Fingerprint(), before);
  Structure grown = a;
  (void)grown.AddElement();
  EXPECT_NE(grown.Fingerprint(), before);
  int added_index = -1;
  for (size_t i = 0; i < more.Tuples(0).size(); ++i) {
    if (more.Tuples(0)[i] == Tuple{2, 0}) added_index = static_cast<int>(i);
  }
  ASSERT_GE(added_index, 0);
  const Structure back = more.RemoveTuple(0, added_index);
  EXPECT_EQ(back.Fingerprint(), before);
}

// The end-to-end stale-cache trials: run a cached query, mutate the
// structure, and require the cached path to agree with an uncached
// engine on a pristine copy of the mutated value. If mutation failed to
// invalidate the fingerprint, the pre-mutation answer would leak out of
// the cache here.
TEST(HomCacheCorrectness, MutationAfterHitIsNeverServedStaleAnswers) {
  HomCache::Global().Clear();
  Rng rng(20260806);
  const Vocabulary voc = GraphVocabulary();
  EngineConfig cached;
  cached.use_cache = true;
  const EngineConfig uncached;  // use_cache defaults to false
  for (int trial = 0; trial < 60; ++trial) {
    Structure a = RandomStructure(voc, rng.UniformInt(1, 4),
                                  rng.UniformInt(0, 6), rng);
    Structure b = RandomStructure(voc, rng.UniformInt(2, 5),
                                  rng.UniformInt(0, 8), rng);
    // Prime the cache and exercise the hit path.
    const bool first = HasHomomorphism(a, b, cached);
    ASSERT_EQ(HasHomomorphism(a, b, cached), first) << "trial " << trial;
    // Mutate one side (alternating target/source; tuple/element).
    Structure& victim = (trial % 2 == 0) ? b : a;
    if (trial % 4 < 2) {
      const int u = rng.UniformInt(0, victim.UniverseSize() - 1);
      const int v = rng.UniformInt(0, victim.UniverseSize() - 1);
      victim.AddTuple(0, {u, v});
    } else {
      const int fresh = victim.AddElement();
      victim.AddTuple(0, {fresh, rng.UniformInt(0, fresh)});
    }
    const Structure pristine_a = a;
    const Structure pristine_b = b;
    ASSERT_EQ(HasHomomorphism(a, b, cached),
              HasHomomorphism(pristine_a, pristine_b, uncached))
        << "stale has-hom answer after mutation; trial " << trial
        << "\na: " << a.DebugString() << "\nb: " << b.DebugString();
    ASSERT_EQ(CountHomomorphisms(a, b, /*limit=*/0, cached),
              CountHomomorphisms(pristine_a, pristine_b, /*limit=*/0,
                                 uncached))
        << "stale count after mutation; trial " << trial
        << "\na: " << a.DebugString() << "\nb: " << b.DebugString();
  }
}

// The count limit participates in the cache key: a count clamped at
// limit 1 must not be served for an unlimited count of the same pair,
// and the has-hom entry must not masquerade as a count.
TEST(HomCacheCorrectness, LimitAndKindAreCacheKeyed) {
  HomCache::Global().Clear();
  const Vocabulary voc = GraphVocabulary();
  const Structure a(voc, 1);  // one isolated element
  const Structure b(voc, 3);  // three candidate images, no constraints
  EngineConfig cached;
  cached.use_cache = true;
  EXPECT_TRUE(HasHomomorphism(a, b, cached));
  EXPECT_EQ(CountHomomorphisms(a, b, /*limit=*/1, cached), 1u);
  EXPECT_EQ(CountHomomorphisms(a, b, /*limit=*/0, cached), 3u);
  EXPECT_EQ(CountHomomorphisms(a, b, /*limit=*/2, cached), 2u);
  // Repeat lookups return the same answers from the cache.
  EXPECT_EQ(CountHomomorphisms(a, b, /*limit=*/0, cached), 3u);
  EXPECT_TRUE(HasHomomorphism(a, b, cached));
}

// Cached and uncached evaluation agree on randomized pairs even without
// mutation (hits must return exactly what the engine computed).
TEST(HomCacheCorrectness, CachedAnswersMatchUncachedEngines) {
  HomCache::Global().Clear();
  Rng rng(20260807);
  const Vocabulary voc = GraphVocabulary();
  EngineConfig cached;
  cached.use_cache = true;
  const EngineConfig uncached;
  const HomCacheStats before = HomCache::Global().Stats();
  for (int trial = 0; trial < 80; ++trial) {
    const Structure a = RandomStructure(voc, rng.UniformInt(1, 4),
                                        rng.UniformInt(0, 6), rng);
    const Structure b = RandomStructure(voc, rng.UniformInt(1, 5),
                                        rng.UniformInt(0, 8), rng);
    const bool expected = HasHomomorphism(a, b, uncached);
    ASSERT_EQ(HasHomomorphism(a, b, cached), expected) << "trial " << trial;
    ASSERT_EQ(HasHomomorphism(a, b, cached), expected)
        << "hit path diverged; trial " << trial;
  }
  const HomCacheStats after = HomCache::Global().Stats();
  EXPECT_GE(after.hits - before.hits, 80u);  // second query of each pair
  EXPECT_GE(after.insertions - before.insertions, 1u);
}

}  // namespace
}  // namespace hompres
