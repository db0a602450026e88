#include "cq/cq.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "base/budget.h"
#include "base/check.h"
#include "engine/engine.h"

namespace hompres {

bool NullaryAtomsHold(const Structure& pattern, const Structure& b) {
  const Vocabulary& vocabulary = pattern.GetVocabulary();
  for (int rel = 0; rel < vocabulary.NumRelations(); ++rel) {
    if (vocabulary.Arity(rel) != 0) continue;
    if (!pattern.Tuples(rel).empty() && b.Tuples(rel).empty()) return false;
  }
  return true;
}

ConjunctiveQuery::ConjunctiveQuery(Structure canonical,
                                   std::vector<int> free_elements)
    : canonical_(std::move(canonical)),
      free_elements_(std::move(free_elements)) {
  for (int e : free_elements_) {
    HOMPRES_CHECK_GE(e, 0);
    HOMPRES_CHECK_LT(e, canonical_.UniverseSize());
  }
}

ConjunctiveQuery ConjunctiveQuery::BooleanQueryOf(Structure canonical) {
  return ConjunctiveQuery(std::move(canonical), {});
}

bool ConjunctiveQuery::SatisfiedBy(const Structure& b) const {
  if (!NullaryAtomsHold(canonical_, b)) return false;
  // Satisfaction is a pure has-hom question; the pipeline's minimal-model
  // and verification scans ask it about the same (canonical, b) pairs
  // over and over, so consult the global result cache.
  EngineConfig config;
  config.use_cache = true;
  Budget unlimited = Budget::Unlimited();
  return Engine::Has(canonical_, b, unlimited, config).Value();
}

std::vector<Tuple> ConjunctiveQuery::Evaluate(const Structure& b) const {
  if (!NullaryAtomsHold(canonical_, b)) return {};
  // The projection search emits each answer once: no dedup needed.
  std::vector<Tuple> answers;
  Budget unlimited = Budget::Unlimited();
  Engine::Project(canonical_, b, unlimited, free_elements_,
                  [&](const std::vector<int>& answer) {
                    answers.push_back(answer);
                    return true;
                  });
  std::sort(answers.begin(), answers.end());
  return answers;
}

std::string ConjunctiveQuery::ToString() const {
  std::ostringstream out;
  std::vector<bool> is_free(static_cast<size_t>(canonical_.UniverseSize()),
                            false);
  for (int e : free_elements_) is_free[static_cast<size_t>(e)] = true;
  for (int e = 0; e < canonical_.UniverseSize(); ++e) {
    if (!is_free[static_cast<size_t>(e)]) out << "Ex" << e << ' ';
  }
  out << '(';
  bool first = true;
  for (int rel = 0; rel < canonical_.GetVocabulary().NumRelations(); ++rel) {
    for (const Tuple& t : canonical_.Tuples(rel)) {
      if (!first) out << " & ";
      first = false;
      out << canonical_.GetVocabulary().Name(rel) << '(';
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out << ',';
        out << 'x' << t[i];
      }
      out << ')';
    }
  }
  if (first) out << "true";
  out << ')';
  return out.str();
}

Outcome<bool> CqContainedBudgeted(const ConjunctiveQuery& q1,
                                  const ConjunctiveQuery& q2, Budget& budget) {
  HOMPRES_CHECK_EQ(q1.Arity(), q2.Arity());
  // Nullary atoms constrain no variable, so the kernel's propagation
  // never sees them — and with an empty q2 universe it emits the empty
  // map unconditionally. Atoms must still map onto same-relation atoms:
  // a 0-ary tuple of q2 absent from q1 is a certain "no" here.
  const Structure& sub = q1.Canonical();
  const Structure& sup = q2.Canonical();
  if (!NullaryAtomsHold(sup, sub)) {
    return Outcome<bool>::Done(false, budget.Report());
  }
  EngineConfig config;
  for (int i = 0; i < q2.Arity(); ++i) {
    config.forced.emplace_back(q2.FreeElements()[static_cast<size_t>(i)],
                               q1.FreeElements()[static_cast<size_t>(i)]);
  }
  // Forced pairs pin the unsplit universe; a boolean containment (no
  // free variables) still factorizes.
  config.factorize = config.forced.empty();
  return Engine::Has(sup, sub, budget, config);
}

bool CqContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  Budget unlimited = Budget::Unlimited();
  return CqContainedBudgeted(q1, q2, unlimited).Value();
}

Outcome<bool> CqEquivalentBudgeted(const ConjunctiveQuery& q1,
                                   const ConjunctiveQuery& q2,
                                   Budget& budget) {
  auto forward = CqContainedBudgeted(q1, q2, budget);
  if (!forward.IsDone()) return forward;
  if (!forward.Value()) return Outcome<bool>::Done(false, budget.Report());
  return CqContainedBudgeted(q2, q1, budget);
}

bool CqEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return CqContained(q1, q2) && CqContained(q2, q1);
}

// One pass over the elements, removing each non-free element e whose
// removal keeps the query equivalent. Three facts make one pass, and one
// containment search per element, enough:
//   - Only q - e ⊆ q needs a search: q ⊆ q - e always holds, through the
//     inclusion of the substructure, which fixes the free variables.
//   - A refuted removal stays refuted. Each accepted q -> q' keeps q'
//     equivalent to q, so q maps into q' fixing the free variables;
//     composed with a map q' -> q' - e, that would map q into q - e,
//     which contains q' - e. So the pass never returns to an element it
//     kept, and after a removal it resumes at the same position, where
//     the next element now sits.
//   - No single atom is ever removable once no element is. A map q ->
//     q - t that fixes the free variables and misses a (non-free)
//     element e also maps q into q - e; one that misses none is a
//     bijection on elements, so it maps each relation's atoms
//     injectively and cannot land in q - t, which has one atom fewer.
// The result is the one a scan that retries every element and every atom
// after each removal, probing both containment directions, would reach.
Outcome<ConjunctiveQuery> MinimizeCqBudgeted(const ConjunctiveQuery& q,
                                             Budget& budget) {
  ConjunctiveQuery current = q;
  int e = 0;
  while (e < current.Canonical().UniverseSize()) {
    const std::vector<int>& free_elements = current.FreeElements();
    if (std::find(free_elements.begin(), free_elements.end(), e) !=
        free_elements.end()) {
      ++e;
      continue;
    }
    std::vector<int> old_to_new;
    Structure candidate = current.Canonical().RemoveElement(e, &old_to_new);
    std::vector<int> reduced_free;
    reduced_free.reserve(free_elements.size());
    for (int f : free_elements) {
      reduced_free.push_back(old_to_new[static_cast<size_t>(f)]);
    }
    ConjunctiveQuery reduced(std::move(candidate), std::move(reduced_free));
    const Outcome<bool> contained = CqContainedBudgeted(reduced, current,
                                                        budget);
    if (!contained.IsDone()) {
      return Outcome<ConjunctiveQuery>::StoppedShort(budget.Report());
    }
    if (contained.Value()) {
      current = std::move(reduced);
    } else {
      ++e;
    }
  }
  if (budget.Stopped()) {
    return Outcome<ConjunctiveQuery>::StoppedShort(budget.Report());
  }
  return Outcome<ConjunctiveQuery>::Done(std::move(current), budget.Report());
}

ConjunctiveQuery MinimizeCq(const ConjunctiveQuery& q) {
  Budget unlimited = Budget::Unlimited();
  ConjunctiveQuery current =
      std::move(MinimizeCqBudgeted(q, unlimited)).TakeValue();
  HOMPRES_CHECK(CqEquivalent(q, current));
  return current;
}

}  // namespace hompres
