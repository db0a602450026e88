// Index-statistics-driven ordering passes shared by the engine's
// planners.
//
// Two orderings live here because they are the same idea applied to two
// join problems:
//
//  - OccurrenceOrderedCandidates / ChooseSplitElements order the source
//    elements of a homomorphism search by how many tuples they occur in
//    (from the source's RelationIndex): the most-constrained decisions
//    first. The parallel subtree-split driver branches on the top of
//    this order; the serial kernel keeps its dynamic smallest-domain
//    heuristic (a static order would change which witness is found).
//
//  - GreedyBoundFirstAtomOrder orders the body atoms of a Datalog rule
//    so that each join step touches the atom with the most
//    already-bound variable slots (ties keep the original body order).
//    Extracted from the compiled-rule engine so the policy is stated,
//    and tested, once. A seed starts the order at a delta atom or with
//    pre-bound slots (datalog/rule_eval.h's maintenance orders).

#ifndef HOMPRES_ENGINE_ORDERING_H_
#define HOMPRES_ENGINE_ORDERING_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "structure/structure.h"

namespace hompres {

// Source elements usable as search-split decisions, most tuple
// occurrences first (stable on ties, so the order is deterministic).
// Excludes isolated elements (no constraint to split on) and elements
// already pinned by a forced pair.
std::vector<int> OccurrenceOrderedCandidates(
    const Structure& a, const std::vector<std::pair<int, int>>& forced);

// The split decision of the parallel subtree driver: which source
// elements to branch on, and how many tasks the cross product of their
// value ranges yields. `elements` is empty when splitting is pointless
// (trivial instance, target universe < 2, or no usable candidate).
struct SplitChoice {
  std::vector<int> elements;
  size_t num_tasks = 1;
};

// Picks at most three of the highest-occurrence candidates until the
// task count reaches 2 * num_threads, capped so the cross product never
// exceeds the driver's task ceiling. Deterministic in its inputs.
SplitChoice ChooseSplitElements(const Structure& a, const Structure& b,
                                const std::vector<std::pair<int, int>>& forced,
                                int num_threads);

// Where a greedy join order starts. The default seeds nothing and gives
// the batch order; view maintenance seeds an order with the atom its
// delta feeds, or with the slots a head-bound probe fixes in advance.
struct AtomOrderSeed {
  int first_atom = -1;           // joins first when >= 0
  std::vector<int> bound_slots;  // count as bound before any atom joins
};

// Greedy bound-first join order for a rule body. atom_slots[i] lists the
// variable slots of body atom i; the result is a permutation of the atom
// indices: at each step the unused atom with the most already-bound
// slots (ties resolved to the lowest original index) joins next. A seed
// pins the first atom and pre-binds slots; the greedy rule orders the
// rest.
std::vector<int> GreedyBoundFirstAtomOrder(
    const std::vector<std::vector<int>>& atom_slots, int num_slots,
    const AtomOrderSeed& seed = {});

}  // namespace hompres

#endif  // HOMPRES_ENGINE_ORDERING_H_
