// Minimal models and Theorem 3.1.
//
// A structure A in class C is a minimal model of a Boolean query q if
// q(A) = 1 and no proper substructure of A inside C satisfies q. For
// classes closed under substructures and queries preserved under
// homomorphisms on C, minimality reduces to the maximal proper
// substructures: "A minus one tuple" and "A minus one isolated element".
// Theorem 3.1: q has finitely many minimal models in C iff q is definable
// on C by an existential-positive sentence — and both directions are
// constructive here.

#ifndef HOMPRES_CORE_MINIMAL_MODELS_H_
#define HOMPRES_CORE_MINIMAL_MODELS_H_

#include <functional>
#include <vector>

#include "base/budget.h"
#include "base/outcome.h"
#include "core/classes.h"
#include "cq/ucq.h"
#include "structure/structure.h"

namespace hompres {

// An abstract Boolean query. Isomorphism invariance and determinism are
// the caller's responsibility: the brute-force search evaluates q once
// per isomorphism class, on the class's canonical structure, and reuses
// that answer for every isomorphic structure (see
// core/structure_space.h). So q must give the same answer on isomorphic
// structures and every time it is asked about the same one.
using BooleanQuery = std::function<bool(const Structure&)>;

class StructureSpace;

// Minimality via one-step removals (sound and complete for classes closed
// under substructures and queries monotone on C, e.g. preserved under
// homomorphisms there).
bool IsMinimalModel(const BooleanQuery& q, const Structure& a,
                    const StructureClass& c);

// Budgeted minimality check (one step per one-step removal examined; the
// opaque query itself is not interruptible).
Outcome<bool> IsMinimalModelBudgeted(const BooleanQuery& q, const Structure& a,
                                     const StructureClass& c, Budget& budget);

// All minimal models of a Boolean UCQ within C, up to isomorphism. Uses
// the Theorem 3.1 proof: every minimal model in C is a homomorphic image
// of some disjunct's canonical structure, so it enumerates all quotients
// of each canonical structure (Bell(n) partitions — keep disjuncts
// small), filters to C-members that are minimal, and deduplicates.
//
// With num_threads > 0 the per-candidate minimality checks (the expensive
// part: each is a batch of homomorphism searches) fan out over a
// work-stealing pool; candidates are merged back in enumeration order, so
// the model list is identical to the serial one. Requires c.contains and
// the query evaluation to be thread-safe (true for the classes and
// queries in this library: they are stateless const calls).
std::vector<Structure> MinimalModelsOfUcq(const UnionOfCq& q,
                                          const StructureClass& c,
                                          int num_threads = 0);

// Budgeted enumeration (one step per candidate quotient). On exhaustion
// no model list is claimed: a truncated enumeration could both miss
// models and retain non-minimal ones.
Outcome<std::vector<Structure>> MinimalModelsOfUcqBudgeted(
    const UnionOfCq& q, const StructureClass& c, Budget& budget,
    int num_threads = 0);

// Theorem 3.1 (1) => (2): the existential-positive sentence equivalent to
// q on C, as the union of the canonical conjunctive queries of the
// minimal models.
UnionOfCq UcqFromMinimalModels(const std::vector<Structure>& models);

// Enumerates every structure over `vocabulary` with universe size up to
// `max_universe` that belongs to C, invoking fn (which returns false to
// stop). The number of structures is 2^(sum n^arity) per universe size —
// strictly a small-n tool. Returns true iff the enumeration completed.
// A thin wrapper over StructureSpace::ForEachInClass.
bool ForEachStructureInClass(const Vocabulary& vocabulary, int max_universe,
                             const StructureClass& c,
                             const std::function<bool(const Structure&)>& fn);

// Budgeted enumeration (one step per structure generated). Done(true) =
// enumeration completed, Done(false) = fn stopped it, Exhausted /
// Cancelled = the budget stopped it.
Outcome<bool> ForEachStructureInClassBudgeted(
    const Vocabulary& vocabulary, int max_universe, const StructureClass& c,
    Budget& budget, const std::function<bool(const Structure&)>& fn);

// Brute-force minimal models of an arbitrary Boolean query q (e.g. an FO
// sentence under evaluation) within C, scanning all structures up to
// `max_universe` elements and keeping one per isomorphism class (the
// first one the scan visits). This is
// the paper's effective procedure with the astronomic size bound replaced
// by an explicit search cap.
std::vector<Structure> MinimalModelsBySearch(const BooleanQuery& q,
                                             const Vocabulary& vocabulary,
                                             const StructureClass& c,
                                             int max_universe);

// Budgeted brute-force search. If `partial` is non-null it receives, even
// on exhaustion, the minimal models confirmed before the stop — the
// best-effort answer the preservation pipeline reports. One budget step
// per structure generated and per one-step removal examined.
Outcome<std::vector<Structure>> MinimalModelsBySearchBudgeted(
    const BooleanQuery& q, const Vocabulary& vocabulary,
    const StructureClass& c, int max_universe, Budget& budget,
    std::vector<Structure>* partial = nullptr);

// The same search over a caller-owned space (whose query is q), so later
// scans of that space reuse the class and query answers it memoized.
Outcome<std::vector<Structure>> MinimalModelsBySearchBudgeted(
    StructureSpace& space, int max_universe, Budget& budget,
    std::vector<Structure>* partial = nullptr);

// Empirical preservation check: for every ordered pair of samples with a
// homomorphism between them, q must transfer along it.
bool CheckPreservedUnderHomomorphisms(const BooleanQuery& q,
                                      const std::vector<Structure>& samples);

}  // namespace hompres

#endif  // HOMPRES_CORE_MINIMAL_MODELS_H_
