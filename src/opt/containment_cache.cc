#include "opt/containment_cache.h"

#include "base/hash.h"

namespace hompres {

size_t ContainmentCache::KeyHash::operator()(const Key& k) const {
  return static_cast<size_t>(Mix64(Mix64(k.fp1) ^ k.fp2));
}

ContainmentCache& ContainmentCache::Global() {
  // Leaked intentionally, like HomCache::Global(): optimizer calls may
  // run during static destruction of test fixtures.
  static ContainmentCache* cache = new ContainmentCache();
  return *cache;
}

std::optional<bool> ContainmentCache::Lookup(uint64_t fp1, uint64_t fp2,
                                             bool* failed) {
  return table_.Lookup(Key{fp1, fp2}, failed);
}

bool ContainmentCache::Insert(uint64_t fp1, uint64_t fp2, bool contained) {
  return table_.Insert(Key{fp1, fp2}, contained);
}

void ContainmentCache::EvictShardFor(uint64_t fp1, uint64_t fp2) {
  table_.EvictShardOf(Key{fp1, fp2});
}

}  // namespace hompres
