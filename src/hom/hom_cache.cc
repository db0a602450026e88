#include "hom/hom_cache.h"

#include "base/hash.h"

namespace hompres {

size_t HomCache::KeyHash::operator()(const Key& k) const {
  uint64_t h = Mix64(k.source_fp);
  h = Mix64(h ^ k.target_fp);
  h = Mix64(h ^ k.options_digest);
  h = Mix64(h ^ k.kind);
  return static_cast<size_t>(h);
}

size_t HomCache::PairHash::operator()(const Key& k) const {
  return static_cast<size_t>(
      Mix64(k.source_fp ^ (k.target_fp * 0x9E3779B97F4A7C15ULL)));
}

HomCache& HomCache::Global() {
  // Leaked intentionally: solver calls may run during static destruction
  // of test fixtures; a function-local leaked singleton has no
  // destruction-order hazard.
  static HomCache* cache = new HomCache();
  return *cache;
}

std::optional<uint64_t> HomCache::Lookup(uint64_t source_fp,
                                         uint64_t target_fp,
                                         uint64_t options_digest, Kind kind,
                                         bool* failed) {
  return table_.Lookup(
      Key{source_fp, target_fp, options_digest, static_cast<uint8_t>(kind)},
      failed);
}

bool HomCache::Insert(uint64_t source_fp, uint64_t target_fp,
                      uint64_t options_digest, Kind kind, uint64_t value) {
  return table_.Insert(
      Key{source_fp, target_fp, options_digest, static_cast<uint8_t>(kind)},
      value);
}

void HomCache::EvictShardFor(uint64_t source_fp, uint64_t target_fp) {
  table_.EvictShardOf(Key{source_fp, target_fp, 0, 0});
}

}  // namespace hompres
