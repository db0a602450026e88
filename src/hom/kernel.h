// The serial homomorphism search kernel, stripped of orchestration.
//
// Everything above this line — caching, Gaifman-component factorization,
// parallel subtree splitting, result-shape mapping — lives in the engine
// layer (engine/engine.h). What remains here is the innermost loop: one
// backtracking search over candidate maps a -> b, with optional AC-3
// bitset propagation and index-narrowed scans, answering one query mode.
//
// Of the EngineConfig the kernel reads surjective, forced,
// use_arc_consistency and use_index; the rest is orchestration. One entry
// point serves every mode (HomProblem::mode):
//   kHas, kFind  emit the first homomorphism the search reaches, then stop;
//   kCount       emit nothing; the return value is the count, clamped at
//                `limit` (0 = no clamp);
//   kEnumerate   emit every homomorphism, in search order;
//   kProject     emit every distinct binding of the `free` elements that
//                extends to a homomorphism, as the tuple of their images
//                (repeats in `free` repeat in the tuple). Free elements
//                are branched on first; once all are bound, one existence
//                search runs and the search backtracks straight to the
//                deepest free element, so no binding is emitted twice.
//
// Vertex-cover cut-off: with arc consistency on and surjectivity off,
// every mode except kEnumerate stops descending at a node whose assigned
// elements cover every constraint (no constraint keeps two distinct
// unassigned elements). Each remaining domain is then exactly the set of
// values consistent with the assignment, so every combination of them is
// a homomorphism: count adds the product of the domain sizes (saturating),
// has/find take the first value of each domain (the leaf the search would
// have reached first, so witnesses are unchanged), and a projection emits
// the product of its unbound free domains.
//
// Budget contract: the kernel charges exactly one Budget::Checkpoint()
// per visited search node and stops (without emitting further) when the
// budget runs out. Nodes below a vertex-cover cut-off are not visited, so
// they charge nothing; kEnumerate visits every node, as it always has. A
// forced pair naming an element outside either universe is a certain
// "no": the kernel returns immediately, charging nothing.
//
// The emit callback returns whether to continue. It is invoked on a
// kernel-internal buffer; copy it to keep it.

#ifndef HOMPRES_HOM_KERNEL_H_
#define HOMPRES_HOM_KERNEL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "base/budget.h"
#include "engine/config.h"
#include "engine/problem.h"

namespace hompres {

// Runs the serial search for problem.mode over problem.source ->
// problem.target. Returns the homomorphism count for kCount (clamped at
// problem.limit) and the number of emitted maps or tuples otherwise.
// problem.callback is not called; answers go to `emit`. Inspect `budget`
// afterwards to distinguish exhaustion from a completed search.
uint64_t RunSerialHomKernel(
    const HomProblem& problem, const EngineConfig& config, Budget& budget,
    const std::function<bool(const std::vector<int>&)>& emit = {});

}  // namespace hompres

#endif  // HOMPRES_HOM_KERNEL_H_
