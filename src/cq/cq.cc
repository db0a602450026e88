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

namespace {

// Tries to find a one-step reduction of q's canonical structure (remove
// one non-free element, or one tuple) that stays equivalent to q.
// Returns false with a stopped budget when the search ran out mid-scan.
bool FindOneStepReduction(const ConjunctiveQuery& q, Budget& budget,
                          ConjunctiveQuery* out) {
  const Structure& canonical = q.Canonical();
  std::vector<bool> is_free(static_cast<size_t>(canonical.UniverseSize()),
                            false);
  for (int e : q.FreeElements()) is_free[static_cast<size_t>(e)] = true;
  for (int e = 0; e < canonical.UniverseSize(); ++e) {
    if (is_free[static_cast<size_t>(e)]) continue;
    std::vector<int> old_to_new;
    Structure candidate = canonical.RemoveElement(e, &old_to_new);
    std::vector<int> free_elements;
    for (int f : q.FreeElements()) {
      free_elements.push_back(old_to_new[static_cast<size_t>(f)]);
    }
    ConjunctiveQuery reduced(std::move(candidate), std::move(free_elements));
    auto equivalent = CqEquivalentBudgeted(q, reduced, budget);
    if (!equivalent.IsDone()) return false;
    if (equivalent.Value()) {
      *out = std::move(reduced);
      return true;
    }
  }
  for (int rel = 0; rel < canonical.GetVocabulary().NumRelations(); ++rel) {
    const int count = static_cast<int>(canonical.Tuples(rel).size());
    for (int i = 0; i < count; ++i) {
      ConjunctiveQuery reduced(canonical.RemoveTuple(rel, i),
                               q.FreeElements());
      auto equivalent = CqEquivalentBudgeted(q, reduced, budget);
      if (!equivalent.IsDone()) return false;
      if (equivalent.Value()) {
        *out = std::move(reduced);
        return true;
      }
    }
  }
  return false;
}

}  // namespace

Outcome<ConjunctiveQuery> MinimizeCqBudgeted(const ConjunctiveQuery& q,
                                             Budget& budget) {
  ConjunctiveQuery current = q;
  ConjunctiveQuery next = q;
  while (FindOneStepReduction(current, budget, &next)) {
    current = next;
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
