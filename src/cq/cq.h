// Conjunctive queries (Section 2.2).
//
// A conjunctive query is represented by its canonical structure (elements
// = variables, tuples = atoms) together with the list of free (output)
// variables; Boolean queries have none. The Chandra-Merlin theorem makes
// this representation operational: B satisfies the query iff there is a
// homomorphism from the canonical structure to B (mapping free variables
// to the answer tuple).

#ifndef HOMPRES_CQ_CQ_H_
#define HOMPRES_CQ_CQ_H_

#include <string>
#include <vector>

#include "base/budget.h"
#include "base/outcome.h"
#include "structure/structure.h"

namespace hompres {

// True iff every 0-ary atom of `pattern` also holds in `b`. A nullary
// atom mentions no variable, so the homomorphism kernel's
// variable-driven propagation never checks it; every CQ-layer entry
// point (satisfaction, evaluation, containment) guards with this
// explicit scan instead. Vocabularies must agree.
bool NullaryAtomsHold(const Structure& pattern, const Structure& b);

class ConjunctiveQuery {
 public:
  // `free_elements` lists the canonical-structure elements playing the
  // role of free variables (order = output order; repetitions allowed).
  ConjunctiveQuery(Structure canonical, std::vector<int> free_elements);

  // The canonical Boolean conjunctive query phi_A of a structure
  // (Section 2.2).
  static ConjunctiveQuery BooleanQueryOf(Structure canonical);

  const Structure& Canonical() const { return canonical_; }
  const std::vector<int>& FreeElements() const { return free_elements_; }
  int Arity() const { return static_cast<int>(free_elements_.size()); }
  bool IsBoolean() const { return free_elements_.empty(); }

  // Boolean satisfaction: does any homomorphism canonical -> b exist?
  // (For non-Boolean queries this means "the answer is nonempty".)
  bool SatisfiedBy(const Structure& b) const;

  // All answer tuples over b, sorted and deduplicated. For Boolean
  // queries the answer is {()} or {}.
  std::vector<Tuple> Evaluate(const Structure& b) const;

  // Rendering, e.g. "∃x1 ∃x2 (E(x0,x1) ∧ E(x1,x2))" with free variables
  // unquantified.
  std::string ToString() const;

 private:
  Structure canonical_;
  std::vector<int> free_elements_;
};

// Containment q1 ⊆ q2 (every answer of q1 on every structure is an answer
// of q2), decided by the Chandra-Merlin criterion: a homomorphism from
// canonical(q2) to canonical(q1) mapping the i-th free variable of q2 to
// the i-th free variable of q1. Arities must match.
//
// Edge cases handled before the engine runs (the solver's constraint
// propagation is variable-driven and would not see them):
//   - 0-ary atoms: a nullary tuple of q2's canonical structure missing
//     from q1's admits no homomorphism (atoms must map onto same-relation
//     atoms), so the answer is a certain "no" — including when q2's
//     canonical universe is empty and the kernel would otherwise emit
//     the empty map unconditionally;
//   - repeated free variables: q2 listing one element at two output
//     positions forces that element to two (possibly different) q1
//     elements; the conflicting pre-assignments empty its domain in the
//     kernel, which this layer relies on and the cq_test rows pin down.
bool CqContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

// Budgeted containment: the homomorphism search charges `budget`;
// StoppedShort when it ran out before the verdict was certain. The
// optimizer layer (src/opt) threads one budget through every probe of a
// UCQ minimization so the whole pass is governable.
Outcome<bool> CqContainedBudgeted(const ConjunctiveQuery& q1,
                                  const ConjunctiveQuery& q2, Budget& budget);

bool CqEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

Outcome<bool> CqEquivalentBudgeted(const ConjunctiveQuery& q1,
                                   const ConjunctiveQuery& q2, Budget& budget);

// Minimization (Chandra-Merlin optimization): the unique (up to
// isomorphism) smallest equivalent conjunctive query, i.e. the core of
// the canonical structure relative to the free variables.
ConjunctiveQuery MinimizeCq(const ConjunctiveQuery& q);

// Budgeted minimization; the budget is shared across all inner
// containment searches. Done(q') is a verified minimal equivalent;
// StoppedShort claims no intermediate result. One pass over the
// non-free elements, one containment search (q - e ⊆ q) each: a removal
// refuted once stays refuted, and once no element is removable no single
// atom is (cq.cc has the argument).
Outcome<ConjunctiveQuery> MinimizeCqBudgeted(const ConjunctiveQuery& q,
                                             Budget& budget);

}  // namespace hompres

#endif  // HOMPRES_CQ_CQ_H_
