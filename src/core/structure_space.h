// The structures of a class C up to a universe bound, as one memoized
// space shared by the scans of a pipeline run (DESIGN.md §4.11).
//
// A structure of the space is a point (n, mask). Level n's tuple space
// lists every tuple over {0, ..., n-1}, relation by relation, each
// relation's tuples in lexicographic order (ForEachTuple's order); bit i
// of the mask says whether tuple i is present. The scan visits levels in
// increasing n and masks in increasing numeric order. Because one
// relation's bits ascend with its sorted tuple list, dropping the i-th
// tuple of a structure clears the i-th set bit of its mask (a
// numerically smaller mask, so one the scan has already judged), and
// dropping an element renumbers the mask into level n-1.
//
// For each point the space memoizes two answers, class membership and
// the query, each computed on first use (one byte per mask; a level's
// table is allocated when the level is first touched). Both answers are
// isomorphism-invariant (see StructureClass and BooleanQuery), so the
// memo is keyed by orbit: a permutation of {0, ..., n-1} permutes the
// tuple bits of level n (0-ary bits stay put), the orbit of a mask is
// its images under all n! permutations, and its canonical mask is the
// numerically least one. An answer is computed once, on the canonical
// mask's structure, and written into the memo byte of every orbit
// member. The canonical mask is also the first member of its orbit the
// ascending scan visits, so a consumer that acts only on canonical masks
// acts once per isomorphism class, in scan order.
//
// A level whose n! exceeds its 2^bits masks (only relations of arity
// at most 1 can do that, e.g. one unary relation at n >= 4) keeps the
// per-mask memo instead: enumerating the permutations would cost more
// than judging every mask. Canonical masks there come from sorting the
// elements by their unary relations. The choice is that comparison,
// level by level, so orbit keying never makes a level slower.
//
// A pipeline run therefore judges each isomorphism class once however
// many scans and minimality checks ask about it.

#ifndef HOMPRES_CORE_STRUCTURE_SPACE_H_
#define HOMPRES_CORE_STRUCTURE_SPACE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "base/budget.h"
#include "base/outcome.h"
#include "core/classes.h"
#include "core/minimal_models.h"
#include "structure/structure.h"

namespace hompres {

class StructureSpace {
 public:
  // `q` may be empty when only class membership is asked for. The class
  // predicate and q must be deterministic and isomorphism-invariant (see
  // StructureClass and BooleanQuery).
  StructureSpace(Vocabulary vocabulary, StructureClass c,
                 BooleanQuery q = {});
  ~StructureSpace();
  StructureSpace(const StructureSpace&) = delete;
  StructureSpace& operator=(const StructureSpace&) = delete;

  // Visits the members of C with at most `max_universe` elements in scan
  // order, calling fn(n, mask) (false stops the scan). One budget step
  // per structure generated, member or not. Done(true) = completed,
  // Done(false) = fn stopped it, Exhausted / Cancelled = the budget
  // stopped it. CHECK-fails on a level with more than 24 possible
  // tuples.
  Outcome<bool> ForEachInClass(int max_universe, Budget& budget,
                               const std::function<bool(int, uint64_t)>& fn);

  // Memoized query answer of (n, mask). Requires a query.
  bool Satisfies(int n, uint64_t mask);

  // The structure (n, mask). The reference stays valid until the next
  // call on this space that names a different point.
  const Structure& At(int n, uint64_t mask);

  // IsMinimalModelBudgeted on At(n, mask), by table lookups: the same
  // checkpoints in the same order (one for the candidate, one per tuple
  // dropped, one per isolated element dropped) and the same answer.
  Outcome<bool> IsMinimal(int n, uint64_t mask, Budget& budget);

  // IsExtensionMinimalModel on At(n, mask): q holds and no one-element
  // removal (which drops the tuples mentioning the element) stays in C
  // and satisfies q.
  bool IsExtensionMinimal(int n, uint64_t mask);

  // The mask at level n-1 of At(n, mask).RemoveElement(e).
  uint64_t RemoveElement(int n, uint64_t mask, int e);

  // The numerically least mask of level n whose structure is isomorphic
  // to At(n, mask).
  uint64_t Canonical(int n, uint64_t mask);

  // Canonical(n, mask) == mask, memoized: true for exactly one mask per
  // isomorphism class of level n, the first one the scan visits.
  bool IsCanonical(int n, uint64_t mask);

 private:
  struct Level;

  Level& GetLevel(int n);
  uint8_t& Memo(Level& level, uint64_t mask);
  // The memoized answer held in the `known` / `value` memo bits of
  // (n, mask), computed by `judge` on the canonical structure of the
  // orbit (at a per-mask level, on the structure itself) on first use.
  bool Judge(int n, uint64_t mask, uint8_t known, uint8_t value,
             const std::function<bool(const Structure&)>& judge);
  // Memoized class membership of (n, mask).
  bool InClass(int n, uint64_t mask);

  Vocabulary vocabulary_;
  StructureClass class_;
  BooleanQuery query_;
  std::vector<std::unique_ptr<Level>> levels_;  // by universe size
  // The one structure last built, for At().
  std::optional<Structure> current_;
  int current_n_ = -1;
  uint64_t current_mask_ = 0;
};

}  // namespace hompres

#endif  // HOMPRES_CORE_STRUCTURE_SPACE_H_
