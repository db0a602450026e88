// The end-to-end homomorphism-preservation pipeline (the paper's
// concluding remark that its proofs are effective): given a first-order
// sentence preserved under homomorphisms on a class C, produce the
// equivalent existential-positive sentence by enumerating minimal models
// and taking the union of their canonical conjunctive queries.
//
// The paper's proofs yield a computable bound on the size of minimal
// models; the bound is astronomically large, so the pipeline takes an
// explicit search cap instead and reports what it verified. On top of
// the cap, every variant below is budget-aware: the search can be bounded
// in steps and wall-clock time, and PreservationPipelineWithRetry retries
// with geometrically escalating budgets, returning a best-effort report
// when even the final attempt is exhausted.

#ifndef HOMPRES_CORE_PRESERVATION_H_
#define HOMPRES_CORE_PRESERVATION_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/outcome.h"
#include "core/classes.h"
#include "core/minimal_models.h"
#include "cq/ucq.h"
#include "fo/formula.h"

namespace hompres {

struct PreservationResult {
  // The minimal models found within the search cap, up to isomorphism.
  std::vector<Structure> minimal_models = {};
  // Their union of canonical conjunctive queries (Theorem 3.1 direction
  // (1) => (2)), minimized.
  UnionOfCq equivalent_ucq = UnionOfCq({}, 0);
  // True iff q and the UCQ agreed on every structure in C up to the
  // verification cap.
  bool verified = false;
  // How far the search and verification went.
  int search_universe = 0;
  int verify_universe = 0;
};

// Runs the pipeline for an abstract Boolean query. `search_universe`
// bounds the minimal-model search; `verify_universe` bounds the
// exhaustive equivalence check (both exponential: keep <= 3-4 for binary
// vocabularies).
PreservationResult PreservationPipeline(const BooleanQuery& q,
                                        const Vocabulary& vocabulary,
                                        const StructureClass& c,
                                        int search_universe,
                                        int verify_universe);

// Convenience overload: q given as a first-order sentence, compiled once
// (fo/eval.h) and run on every structure the pipeline judges.
// CHECK-fails if f is not a sentence over `vocabulary`.
PreservationResult PreservationPipeline(const FormulaPtr& sentence,
                                        const Vocabulary& vocabulary,
                                        const StructureClass& c,
                                        int search_universe,
                                        int verify_universe);

// Budgeted pipeline. Done(result) iff both the minimal-model search and
// the verification scan ran to completion within the budget. On
// exhaustion, if `partial` is non-null it receives the minimal models
// confirmed before the stop (best-effort; `verified` cannot be claimed).
Outcome<PreservationResult> PreservationPipelineBudgeted(
    const BooleanQuery& q, const Vocabulary& vocabulary,
    const StructureClass& c, int search_universe, int verify_universe,
    Budget& budget, std::vector<Structure>* partial = nullptr);

// Retry policy for PreservationPipelineWithRetry: attempt i (0-based)
// runs with step limit initial_steps * escalation_factor^i and timeout
// initial_timeout * escalation_factor^i, for at most max_attempts
// attempts. A zero initial limit means "unlimited" for that dimension.
// (Executed through the general RetrySchedule of base/retry.h; this
// struct remains the pipeline's stable options surface.)
struct PreservationBudgetOptions {
  uint64_t initial_steps = 1u << 16;
  std::chrono::nanoseconds initial_timeout = std::chrono::milliseconds(250);
  int max_attempts = 3;
  uint64_t escalation_factor = 4;
  // Optional external cancellation, checked by every attempt.
  const std::atomic<bool>* cancel = nullptr;
};

// One attempt's record in the structured report.
struct PreservationAttempt {
  uint64_t max_steps = 0;  // 0 = unlimited
  std::chrono::nanoseconds timeout{0};  // 0 = unlimited
  BudgetReport report;  // how the attempt ended and what it used
  bool completed = false;
};

// The structured best-effort report of the retrying pipeline.
struct PreservationReport {
  // True iff some attempt completed; `result` is then its full answer.
  bool completed = false;
  // Completed answer, or the best-effort partial from the last attempt
  // (minimal models confirmed before exhaustion; verified == false).
  PreservationResult result;
  // One entry per attempt, in order.
  std::vector<PreservationAttempt> attempts;
};

// Runs the budgeted pipeline under the escalation schedule of `options`,
// stopping at the first attempt that completes (or on cancellation).
// Never hangs and never aborts: the caller always gets a report.
PreservationReport PreservationPipelineWithRetry(
    const BooleanQuery& q, const Vocabulary& vocabulary,
    const StructureClass& c, int search_universe, int verify_universe,
    const PreservationBudgetOptions& options = {});

}  // namespace hompres

#endif  // HOMPRES_CORE_PRESERVATION_H_
