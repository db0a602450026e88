#include "core/structure_space.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>
#include <utility>

#include "base/check.h"
#include "base/subsets.h"

namespace hompres {

namespace {

// Memo byte layout: one "known" and one "value" bit per answer, the
// answers being class membership, q, and whether the mask is canonical.
constexpr uint8_t kClassKnown = 1;
constexpr uint8_t kInClass = 2;
constexpr uint8_t kQueryKnown = 4;
constexpr uint8_t kSatisfies = 8;
constexpr uint8_t kOrbitKnown = 16;
constexpr uint8_t kCanonical = 32;

// The bit of (rel, tuple) in level n's tuple space.
int TupleBit(const Vocabulary& vocabulary, int n, int rel,
             const Tuple& tuple) {
  int bit = 0;
  for (int r = 0; r < rel; ++r) {
    int count = 1;
    for (int i = 0; i < vocabulary.Arity(r); ++i) count *= n;
    bit += count;
  }
  int rank = 0;
  for (int e : tuple) rank = rank * n + e;
  return bit + rank;
}

// The number of permutations of {0, ..., n-1} when it is at most the
// 2^bits masks of a level, else 0 (the level keeps the per-mask memo).
size_t OrbitPermutations(int n, size_t bits) {
  size_t permutations = 1;
  for (int i = 2; i <= n; ++i) {
    permutations *= static_cast<size_t>(i);
    if (permutations > (size_t{1} << bits)) return 0;
  }
  return permutations;
}

}  // namespace

struct StructureSpace::Level {
  // Bit -> (relation, tuple).
  std::vector<std::pair<int, Tuple>> tuples;
  // Per element: the bits whose tuple mentions it.
  std::vector<uint64_t> touches;
  // Per element e and bit b not in touches[e]: the bit at level n-1 of
  // b's tuple once e is removed (ids above e shift down).
  std::vector<std::vector<int>> shifted;
  // Memo bytes, one per mask; allocated on first lookup.
  std::vector<uint8_t> memo;
  // n! at an orbit-keyed level, 0 at a per-mask level.
  size_t permutations = 0;
  // Per permutation (identity first), the image of every bit under it.
  std::vector<uint8_t> permuted;

  uint64_t Permute(size_t p, uint64_t mask) const {
    const uint8_t* image = permuted.data() + p * tuples.size();
    uint64_t result = 0;
    for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
      result |= uint64_t{1} << image[std::countr_zero(rest)];
    }
    return result;
  }
};

StructureSpace::StructureSpace(Vocabulary vocabulary, StructureClass c,
                               BooleanQuery q)
    : vocabulary_(std::move(vocabulary)),
      class_(std::move(c)),
      query_(std::move(q)) {}

StructureSpace::~StructureSpace() = default;

StructureSpace::Level& StructureSpace::GetLevel(int n) {
  HOMPRES_CHECK_GE(n, 0);
  if (static_cast<int>(levels_.size()) <= n) {
    levels_.resize(static_cast<size_t>(n) + 1);
  }
  std::unique_ptr<Level>& slot = levels_[static_cast<size_t>(n)];
  if (slot != nullptr) return *slot;
  auto level = std::make_unique<Level>();
  for (int rel = 0; rel < vocabulary_.NumRelations(); ++rel) {
    ForEachTuple(n, vocabulary_.Arity(rel), [&](const std::vector<int>& t) {
      level->tuples.emplace_back(rel, t);
      return true;
    });
  }
  // 2^24 structures per level is the ceiling.
  HOMPRES_CHECK_LE(level->tuples.size(), 24u);
  level->touches.assign(static_cast<size_t>(n), 0);
  level->shifted.assign(static_cast<size_t>(n),
                        std::vector<int>(level->tuples.size(), -1));
  for (size_t bit = 0; bit < level->tuples.size(); ++bit) {
    const auto& [rel, tuple] = level->tuples[bit];
    for (int e = 0; e < n; ++e) {
      bool mentions = false;
      Tuple shifted = tuple;
      for (int& x : shifted) {
        mentions |= x == e;
        if (x > e) --x;
      }
      if (mentions) {
        level->touches[static_cast<size_t>(e)] |= uint64_t{1} << bit;
      } else {
        level->shifted[static_cast<size_t>(e)][bit] =
            TupleBit(vocabulary_, n - 1, rel, shifted);
      }
    }
  }
  level->permutations = OrbitPermutations(n, level->tuples.size());
  if (level->permutations > 0) {
    std::vector<int> perm(static_cast<size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    do {
      for (const auto& [rel, tuple] : level->tuples) {
        Tuple image = tuple;
        for (int& x : image) x = perm[static_cast<size_t>(x)];
        level->permuted.push_back(
            static_cast<uint8_t>(TupleBit(vocabulary_, n, rel, image)));
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
  slot = std::move(level);
  return *slot;
}

uint8_t& StructureSpace::Memo(Level& level, uint64_t mask) {
  if (level.memo.empty()) {
    level.memo.assign(size_t{1} << level.tuples.size(), 0);
  }
  return level.memo[mask];
}

const Structure& StructureSpace::At(int n, uint64_t mask) {
  if (current_.has_value() && current_n_ == n && current_mask_ == mask) {
    return *current_;
  }
  const Level& level = GetLevel(n);
  current_.emplace(vocabulary_, n);
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const auto& [rel, tuple] =
        level.tuples[static_cast<size_t>(std::countr_zero(rest))];
    current_->AddTuple(rel, tuple);
  }
  current_n_ = n;
  current_mask_ = mask;
  return *current_;
}

bool StructureSpace::Judge(
    int n, uint64_t mask, uint8_t known, uint8_t value,
    const std::function<bool(const Structure&)>& judge) {
  Level& level = GetLevel(n);
  uint8_t& memo = Memo(level, mask);
  if ((memo & known) != 0) return (memo & value) != 0;
  if (level.permutations == 0) {
    memo |= judge(At(n, mask)) ? known | value : known;
    return (memo & value) != 0;
  }
  const uint64_t canonical = Canonical(n, mask);
  const uint8_t answer =
      (judge(At(n, canonical)) ? known | value : known) | kOrbitKnown;
  for (size_t p = 0; p < level.permutations; ++p) {
    level.memo[level.Permute(p, canonical)] |= answer;
  }
  level.memo[canonical] |= kCanonical;
  return (memo & value) != 0;
}

bool StructureSpace::InClass(int n, uint64_t mask) {
  return Judge(n, mask, kClassKnown, kInClass, class_.contains);
}

bool StructureSpace::Satisfies(int n, uint64_t mask) {
  HOMPRES_CHECK(query_ != nullptr);
  return Judge(n, mask, kQueryKnown, kSatisfies, query_);
}

uint64_t StructureSpace::Canonical(int n, uint64_t mask) {
  const Level& level = GetLevel(n);
  if (level.permutations > 0) {
    uint64_t least = mask;
    for (size_t p = 1; p < level.permutations; ++p) {
      least = std::min(least, level.Permute(p, mask));
    }
    return least;
  }
  // A per-mask level has only relations of arity <= 1: a relation of
  // arity >= 2 gives 2^(n^2) >= n! masks. 0-ary bits stay put. The last
  // unary relation's bits are the most significant, so the least mask
  // gives its members the lowest ids; ties go to the relation before it,
  // and so on. That is, the elements sorted by descending colour, where
  // an element's colour has bit r set when it is in unary relation r.
  std::vector<uint32_t> colour(static_cast<size_t>(n), 0);
  uint64_t least = 0;
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const auto& [rel, tuple] =
        level.tuples[static_cast<size_t>(std::countr_zero(rest))];
    if (tuple.empty()) {
      least |= rest & (~rest + 1);
      continue;
    }
    HOMPRES_CHECK_EQ(tuple.size(), 1u);
    HOMPRES_CHECK_LT(rel, 32);
    colour[static_cast<size_t>(tuple[0])] |= uint32_t{1} << rel;
  }
  std::sort(colour.begin(), colour.end(), std::greater<>());
  for (int e = 0; e < n; ++e) {
    for (uint32_t rest = colour[static_cast<size_t>(e)]; rest != 0;
         rest &= rest - 1) {
      least |= uint64_t{1}
               << TupleBit(vocabulary_, n, std::countr_zero(rest), {e});
    }
  }
  return least;
}

bool StructureSpace::IsCanonical(int n, uint64_t mask) {
  uint8_t& memo = Memo(GetLevel(n), mask);
  if ((memo & kOrbitKnown) == 0) {
    memo |= Canonical(n, mask) == mask ? kOrbitKnown | kCanonical
                                       : kOrbitKnown;
  }
  return (memo & kCanonical) != 0;
}

uint64_t StructureSpace::RemoveElement(int n, uint64_t mask, int e) {
  HOMPRES_CHECK_GE(e, 0);
  HOMPRES_CHECK_LT(e, n);
  const Level& level = GetLevel(n);
  const std::vector<int>& shifted = level.shifted[static_cast<size_t>(e)];
  uint64_t reduced = 0;
  for (uint64_t rest = mask & ~level.touches[static_cast<size_t>(e)];
       rest != 0; rest &= rest - 1) {
    reduced |= uint64_t{1}
               << shifted[static_cast<size_t>(std::countr_zero(rest))];
  }
  return reduced;
}

Outcome<bool> StructureSpace::ForEachInClass(
    int max_universe, Budget& budget,
    const std::function<bool(int, uint64_t)>& fn) {
  for (int n = 0; n <= max_universe; ++n) {
    const uint64_t limit = uint64_t{1} << GetLevel(n).tuples.size();
    bool completed = true;
    for (uint64_t mask = 0; mask < limit; ++mask) {
      if (!budget.Checkpoint() || (InClass(n, mask) && !fn(n, mask))) {
        completed = false;
        break;
      }
    }
    if (budget.Stopped()) {
      return Outcome<bool>::StoppedShort(budget.Report());
    }
    if (!completed) return Outcome<bool>::Done(false, budget.Report());
  }
  return Outcome<bool>::Done(true, budget.Report());
}

Outcome<bool> StructureSpace::IsMinimal(int n, uint64_t mask,
                                        Budget& budget) {
  if (!budget.Checkpoint()) return Outcome<bool>::StoppedShort(budget.Report());
  if (!InClass(n, mask) || !Satisfies(n, mask)) {
    return Outcome<bool>::Done(false, budget.Report());
  }
  // Maximal proper substructures: drop one tuple (ascending bits are the
  // relation-by-relation sorted tuple order)...
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    if (!budget.Checkpoint()) {
      return Outcome<bool>::StoppedShort(budget.Report());
    }
    const uint64_t reduced = mask ^ (rest & (~rest + 1));
    if (InClass(n, reduced) && Satisfies(n, reduced)) {
      return Outcome<bool>::Done(false, budget.Report());
    }
  }
  // ... or one isolated element.
  const Level& level = GetLevel(n);
  for (int e = 0; e < n; ++e) {
    if ((mask & level.touches[static_cast<size_t>(e)]) != 0) continue;
    if (!budget.Checkpoint()) {
      return Outcome<bool>::StoppedShort(budget.Report());
    }
    const uint64_t reduced = RemoveElement(n, mask, e);
    if (InClass(n - 1, reduced) && Satisfies(n - 1, reduced)) {
      return Outcome<bool>::Done(false, budget.Report());
    }
  }
  return Outcome<bool>::Done(true, budget.Report());
}

bool StructureSpace::IsExtensionMinimal(int n, uint64_t mask) {
  if (!InClass(n, mask) || !Satisfies(n, mask)) return false;
  for (int e = 0; e < n; ++e) {
    const uint64_t reduced = RemoveElement(n, mask, e);
    if (InClass(n - 1, reduced) && Satisfies(n - 1, reduced)) return false;
  }
  return true;
}

}  // namespace hompres
