// Parallel homomorphism search (the CSP view of Chandra-Merlin, fanned
// out over a work-stealing thread pool).
//
// The driver runs a plan whose strategy is kParallelSplit (engine/plan.h).
// The planner has chosen the split elements: the source elements that
// occur in the most tuples (the strongest constraints). The driver forms
// one task per assignment of target values to those elements and runs
// the serial kernel (hom/kernel.h) inside each task, with the split
// assignment appended to the forced pairs. Tasks are independent
// subtrees — their assignment sets partition the full space — so
// existence, certain absence, and exact counts compose without
// coordination beyond:
//
//  - a shared atomic step counter (Budget::SpawnWorker) so the workers
//    together respect the caller's step limit;
//  - per-task cancellation flags for first-finisher cancellation: a task
//    that finds a witness cancels the subtrees that can no longer affect
//    the answer.
//
// Determinism: the has/none decision equals the serial engine's. The
// witness returned depends on thread timing unless
// config.deterministic_witness is set, in which case it is the witness
// of the lexicographically first subtree — a pure function of the inputs
// and config (including num_threads), though not necessarily the same
// map the serial engine finds. Under budget exhaustion the accounting is
// approximate: concurrent workers may overshoot the step limit by up to
// one step each.
//
// The engine (engine/engine.h) calls the driver after the degradation
// ladder has run on the plan, so a task neither re-plans nor re-probes
// a failpoint of the ladder.

#ifndef HOMPRES_HOM_PARALLEL_H_
#define HOMPRES_HOM_PARALLEL_H_

#include "base/budget.h"
#include "base/outcome.h"
#include "engine/engine.h"
#include "engine/plan.h"

namespace hompres {

// Runs a kParallelSplit plan of mode kHas, kFind or kCount.
//   kHas, kFind  has (and, for kFind, the witness) of the subtrees;
//   kCount       the sum of the subtree counts, which is exact because
//                the subtrees partition the assignment space. With
//                limit > 0 the count stops once `limit` homomorphisms
//                have been seen across all subtrees and reports `limit`,
//                like the serial count.
Outcome<HomResult> RunParallelSplit(const HomPlan& plan, Budget& budget);

}  // namespace hompres

#endif  // HOMPRES_HOM_PARALLEL_H_
