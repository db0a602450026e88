#include "core/extension_preservation.h"

#include <optional>
#include <string>

#include "base/budget.h"
#include "base/check.h"
#include "base/subsets.h"
#include "core/structure_space.h"
#include "fo/eval.h"

namespace hompres {

bool IsExtensionMinimalModel(const BooleanQuery& q, const Structure& a,
                             const StructureClass& c) {
  if (!c.contains(a) || !q(a)) return false;
  for (int e = 0; e < a.UniverseSize(); ++e) {
    const Structure reduced = a.RemoveElement(e);
    if (c.contains(reduced) && q(reduced)) return false;
  }
  return true;
}

namespace {

// The extension-minimal models in `space` up to `max_universe` elements,
// one per isomorphism class: each is judged at the canonical mask of its
// orbit, the first member the scan visits.
std::vector<Structure> ExtensionMinimalModels(StructureSpace& space,
                                              int max_universe) {
  std::vector<Structure> models;
  Budget unlimited = Budget::Unlimited();
  (void)space.ForEachInClass(
      max_universe, unlimited, [&](int n, uint64_t mask) {
        if (space.IsCanonical(n, mask) && space.IsExtensionMinimal(n, mask)) {
          models.push_back(space.At(n, mask));
        }
        return true;
      });
  return models;
}

}  // namespace

std::vector<Structure> ExtensionMinimalModelsBySearch(
    const BooleanQuery& q, const Vocabulary& vocabulary,
    const StructureClass& c, int max_universe) {
  StructureSpace space(vocabulary, c, q);
  return ExtensionMinimalModels(space, max_universe);
}

FormulaPtr ExistentialSentenceFromModels(
    const std::vector<Structure>& models) {
  HOMPRES_CHECK(!models.empty());
  std::vector<FormulaPtr> disjuncts;
  for (const Structure& m : models) {
    const int n = m.UniverseSize();
    auto var = [](int i) { return "y" + std::to_string(i); };
    std::vector<FormulaPtr> conjuncts;
    // Pairwise distinctness makes the witness an embedding.
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        conjuncts.push_back(
            Formula::Not(Formula::Equal(var(i), var(j))));
      }
    }
    // The full (positive and negative) diagram: the witness is an
    // INDUCED copy.
    for (int rel = 0; rel < m.GetVocabulary().NumRelations(); ++rel) {
      ForEachTuple(n, m.GetVocabulary().Arity(rel),
                   [&](const std::vector<int>& t) {
                     std::vector<std::string> arguments;
                     arguments.reserve(t.size());
                     for (int e : t) arguments.push_back(var(e));
                     FormulaPtr atom = Formula::Atom(
                         m.GetVocabulary().Name(rel), arguments);
                     conjuncts.push_back(m.HasTuple(rel, t)
                                             ? atom
                                             : Formula::Not(atom));
                     return true;
                   });
    }
    FormulaPtr body;
    if (conjuncts.empty()) {
      // The empty model: "true" — which as an extension-minimal model
      // means q holds everywhere; render as ∀z (z = z).
      body = Formula::Forall("z", Formula::Equal("z", "z"));
      disjuncts.push_back(body);
      continue;
    }
    body = conjuncts.size() == 1 ? conjuncts[0]
                                 : Formula::And(std::move(conjuncts));
    for (int i = n - 1; i >= 0; --i) body = Formula::Exists(var(i), body);
    disjuncts.push_back(body);
  }
  return disjuncts.size() == 1 ? disjuncts[0]
                               : Formula::Or(std::move(disjuncts));
}

ExtensionPreservationResult ExtensionPreservationPipeline(
    const FormulaPtr& sentence, const Vocabulary& vocabulary,
    const StructureClass& c, int search_universe, int verify_universe) {
  const CompiledSentence compiled(sentence, vocabulary);
  // One space for the search and both verification scans: each
  // structure's class membership and q are judged once.
  StructureSpace space(vocabulary, c, [&compiled](const Structure& a) {
    return compiled.Evaluate(a);
  });
  ExtensionPreservationResult result;
  result.search_universe = search_universe;
  result.verify_universe = verify_universe;
  result.minimal_models = ExtensionMinimalModels(space, search_universe);
  // q is false on everything searched when no model was found; "false"
  // has no existential rendering here, so it is verified only if q is
  // false everywhere checked.
  std::optional<CompiledSentence> existential;
  if (!result.minimal_models.empty()) {
    result.equivalent_existential =
        ExistentialSentenceFromModels(result.minimal_models);
    existential.emplace(result.equivalent_existential, vocabulary);
  }
  // Both sides are isomorphism-invariant: one comparison per orbit.
  bool all_agree = true;
  Budget unlimited = Budget::Unlimited();
  (void)space.ForEachInClass(
      verify_universe, unlimited, [&](int n, uint64_t mask) {
        if (!space.IsCanonical(n, mask)) return true;
        const bool by_query = space.Satisfies(n, mask);
        all_agree = by_query == (existential.has_value() &&
                                 existential->Evaluate(space.At(n, mask)));
        return all_agree;
      });
  result.verified = all_agree;
  return result;
}

}  // namespace hompres
