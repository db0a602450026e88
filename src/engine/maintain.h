// Maintenance planning: choose how a materialized Datalog view follows a
// StructureDelta (DESIGN.md §4.10).
//
// The chooser is a fixed decision ladder over cheap, precomputed traits
// of the (program, delta) pair — it never looks at tuple values:
//
//   1. forced baseline            -> from-scratch (differential testing)
//   2. empty net tuple delta      -> no-op (element appends cannot create
//                                   IDB facts: every head variable is
//                                   bound through a body atom)
//   3. certified bounded program  -> count derivations over the optimized
//                                   stage-UCQ unfolding, one EDB-only
//                                   rule per disjunct (Theorem 7.5);
//                                   cost follows the delta
//   4. non-recursive program      -> counting (signed derivation counts,
//                                   exact under insertion AND deletion)
//   5. insertion-only delta       -> semi-naive delta rules
//   6. otherwise                  -> DRed (overdelete / rederive), with
//                                   delta-insert for the inserted half
//
// Every strategy computes the same IDB as a from-scratch refixpoint;
// only cost differs. Execution-time faults ("view/maintain",
// "delta/apply") demote the chosen strategy to from-scratch and are
// recorded as DegradationEvents on the plan, exactly like the
// homomorphism engine's ladder (engine/plan.h).
//
// The plan is deliberately engine-agnostic: src/datalog/incremental.h
// executes it, src/server reports it, and Explain()/Summary() render it
// in the same stable, diffable shapes as HomPlan.

#ifndef HOMPRES_ENGINE_MAINTAIN_H_
#define HOMPRES_ENGINE_MAINTAIN_H_

#include <string>
#include <vector>

#include "engine/plan.h"

namespace hompres {

enum class MaintainStrategy {
  kNoOp,         // empty net tuple delta: apply appends, keep the IDB
  kBoundedUcq,   // bounded program: counting over the stage-UCQ unfolding
  kCounting,     // non-recursive: signed derivation-count maintenance
  kDeltaInsert,  // insertion-only: semi-naive delta rounds
  kDRed,         // deletions in a recursive program: overdelete/rederive
  kFromScratch,  // full refixpoint (always sound; the fault fallback)
};

// Stable kebab-case name ("bounded-ucq", "delta-insert", ...) for
// Explain/Summary, server stats, and the bench-JSON plan field.
const char* MaintainStrategyName(MaintainStrategy strategy);

// The inputs the chooser looks at. Program-shape traits come from the
// view (computed once at construction); delta-shape traits are the net
// effect of the incoming edit script.
struct MaintenanceTraits {
  // Program shape.
  bool recursive = false;         // IDB dependency graph has a cycle
  bool has_inequalities = false;  // rules carry x != y guards
  bool bounded = false;           // every IDB holds an Ajtai-Gurevich
                                  // boundedness certificate
  int bounded_stage = 0;          // max witness stage when bounded

  // Net delta shape (after cancelling insert/remove pairs).
  int inserted = 0;
  int removed = 0;
  int appended_elements = 0;

  // Differential-testing baseline: always refixpoint from scratch.
  bool force_from_scratch = false;
};

struct MaintenancePlan {
  MaintainStrategy strategy = MaintainStrategy::kFromScratch;
  MaintenanceTraits traits;

  // Fallbacks taken while executing this plan (same contract as
  // HomPlan::degradations: logically an audit of the run, so mutable;
  // one plan must not be executed from two threads at once).
  mutable std::vector<DegradationEvent> degradations;

  // Multi-line, deterministic trace mirroring HomPlan::Explain(); after
  // a degraded execution ends with a "degradations:" section.
  std::string Explain() const;

  // One-line summary ("maintain=dred recursive=1 bounded=0 ins=2 rem=1
  // appends=0"), gaining a trailing "degraded=kind+kind" token after a
  // degraded run (bench/check_regression.py flags it).
  std::string Summary() const;
};

// The decision ladder above. Deterministic: same traits, same plan.
MaintenancePlan PlanMaintenance(const MaintenanceTraits& traits);

}  // namespace hompres

#endif  // HOMPRES_ENGINE_MAINTAIN_H_
