#include "core/preservation.h"

#include <utility>

#include "base/failpoint.h"
#include "base/retry.h"
#include "core/structure_space.h"
#include "cq/cq.h"
#include "fo/eval.h"
#include "opt/optimizer.h"

namespace hompres {

Outcome<PreservationResult> PreservationPipelineBudgeted(
    const BooleanQuery& q, const Vocabulary& vocabulary,
    const StructureClass& c, int search_universe, int verify_universe,
    Budget& budget, std::vector<Structure>* partial) {
  using Result = Outcome<PreservationResult>;
  PreservationResult result{
      .minimal_models = {},
      .equivalent_ucq = UnionOfCq({}, 0),
      .verified = false,
      .search_universe = search_universe,
      .verify_universe = verify_universe,
  };
  // One space for both scans: the verification below re-reads the class
  // and q answers the search memoized, so it only evaluates the UCQ.
  StructureSpace space(vocabulary, c, q);
  auto search =
      MinimalModelsBySearchBudgeted(space, search_universe, budget, partial);
  if (!search.IsDone()) return Result::StoppedShort(budget.Report());
  result.minimal_models = std::move(search).TakeValue();
  // Theorem 3.1's UCQ is one disjunct per minimal model — typically full
  // of renamed duplicates and subsumed specializations. The optimizer
  // collapses them on the pipeline's own budget; when that budget runs
  // out mid-pass it hands back the unminimized (still equivalent) union
  // and the verification scan below decides whether there is budget
  // left to certify it.
  result.equivalent_ucq = OptimizeUcqBudgeted(
      UcqFromMinimalModels(result.minimal_models), budget);
  if (budget.Stopped()) return Result::StoppedShort(budget.Report());
  // Exhaustive verification within the cap: q(A) == UCQ(A) for every
  // A in C with at most verify_universe elements. Both sides are
  // isomorphism-invariant (a homomorphism composed with an isomorphism
  // is one), so comparing them at the canonical mask of each orbit
  // decides the whole orbit. Every mask still costs its step, and the
  // first disagreeing mask of the scan is a canonical one, so the scan
  // stops where a mask-by-mask comparison would.
  bool all_agree = true;
  auto scan = space.ForEachInClass(
      verify_universe, budget, [&](int n, uint64_t mask) {
        if (!space.IsCanonical(n, mask)) return true;
        const bool by_query = space.Satisfies(n, mask);
        all_agree = by_query ==
                    result.equivalent_ucq.SatisfiedBy(space.At(n, mask));
        return all_agree;
      });
  if (!scan.IsDone()) return Result::StoppedShort(budget.Report());
  result.verified = all_agree;
  return Result::Done(std::move(result), budget.Report());
}

PreservationResult PreservationPipeline(const BooleanQuery& q,
                                        const Vocabulary& vocabulary,
                                        const StructureClass& c,
                                        int search_universe,
                                        int verify_universe) {
  Budget unlimited = Budget::Unlimited();
  return std::move(PreservationPipelineBudgeted(q, vocabulary, c,
                                                search_universe,
                                                verify_universe, unlimited))
      .TakeValue();
}

PreservationResult PreservationPipeline(const FormulaPtr& sentence,
                                        const Vocabulary& vocabulary,
                                        const StructureClass& c,
                                        int search_universe,
                                        int verify_universe) {
  const CompiledSentence compiled(sentence, vocabulary);
  const BooleanQuery q = [&compiled](const Structure& a) {
    return compiled.Evaluate(a);
  };
  return PreservationPipeline(q, vocabulary, c, search_universe,
                              verify_universe);
}

PreservationReport PreservationPipelineWithRetry(
    const BooleanQuery& q, const Vocabulary& vocabulary,
    const StructureClass& c, int search_universe, int verify_universe,
    const PreservationBudgetOptions& options) {
  PreservationReport report;
  report.result.search_universe = search_universe;
  report.result.verify_universe = verify_universe;
  report.result.equivalent_ucq = UnionOfCq({}, 0);

  // The pipeline's historical escalation loop, expressed over the
  // reusable schedule (base/retry.h): same limits per attempt, no
  // backoff, saturating growth.
  RetryPolicy policy;
  policy.initial_steps = options.initial_steps;
  policy.initial_timeout = options.initial_timeout;
  policy.max_attempts = options.max_attempts;
  policy.escalation_factor = options.escalation_factor;
  policy.cancel = options.cancel;
  const RetrySchedule schedule(policy);

  for (int attempt = 0; attempt < schedule.NumAttempts(); ++attempt) {
    // Attempt 0 always runs (an already-raised cancel flag is then
    // recorded as a kCancelled attempt, not silently dropped); later
    // attempts honor the schedule's cancellation-aware backoff.
    if (attempt > 0 && !schedule.Backoff(attempt)) break;

    const RetryAttempt limits = schedule.Attempt(attempt);
    PreservationAttempt record;
    record.max_steps = limits.max_steps;
    record.timeout = limits.timeout;

    if (HOMPRES_FAILPOINT("preservation/attempt")) {
      // Injected attempt loss: the executor died before doing any work.
      // Record the attempt as exhausted and let escalation proceed.
      record.report.reason = StopReason::kSteps;
      report.attempts.push_back(record);
      continue;
    }

    Budget budget = schedule.MakeBudget(attempt);
    std::vector<Structure> partial;
    auto outcome = PreservationPipelineBudgeted(
        q, vocabulary, c, search_universe, verify_universe, budget,
        &partial);

    record.report = outcome.Report();
    record.completed = outcome.IsDone();
    report.attempts.push_back(record);

    if (outcome.IsDone()) {
      report.completed = true;
      report.result = std::move(outcome).TakeValue();
      return report;
    }
    // Best-effort: keep the richest partial seen so far.
    if (partial.size() >= report.result.minimal_models.size()) {
      report.result.minimal_models = std::move(partial);
      report.result.equivalent_ucq =
          UcqFromMinimalModels(report.result.minimal_models);
      report.result.verified = false;
    }
    if (outcome.IsCancelled()) break;  // escalation will not help
  }
  return report;
}

}  // namespace hompres
