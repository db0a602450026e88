#include "core/structure_space.h"

#include <bit>
#include <utility>

#include "base/check.h"
#include "base/subsets.h"

namespace hompres {

namespace {

// Memo byte layout: one "known" and one "value" bit per answer.
constexpr uint8_t kClassKnown = 1;
constexpr uint8_t kInClass = 2;
constexpr uint8_t kQueryKnown = 4;
constexpr uint8_t kSatisfies = 8;

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
  slot = std::move(level);
  return *slot;
}

uint8_t& StructureSpace::Memo(int n, uint64_t mask) {
  Level& level = GetLevel(n);
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

bool StructureSpace::InClass(int n, uint64_t mask) {
  uint8_t& memo = Memo(n, mask);
  if ((memo & kClassKnown) == 0) {
    memo |= class_.contains(At(n, mask)) ? kClassKnown | kInClass
                                         : kClassKnown;
  }
  return (memo & kInClass) != 0;
}

bool StructureSpace::Satisfies(int n, uint64_t mask) {
  HOMPRES_CHECK(query_ != nullptr);
  uint8_t& memo = Memo(n, mask);
  if ((memo & kQueryKnown) == 0) {
    memo |= query_(At(n, mask)) ? kQueryKnown | kSatisfies : kQueryKnown;
  }
  return (memo & kSatisfies) != 0;
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
