// Tests for the resource-governance layer: Budget/Outcome semantics,
// budgeted variants of every exponential search path, determinism of step
// accounting, deadline behavior on adversarial inputs, cancellation, and
// the preservation pipeline's escalating retry.

#include <atomic>
#include <chrono>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/outcome.h"
#include "core/minimal_models.h"
#include "core/preservation.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "fo/parser.h"
#include "graph/builders.h"
#include "hom/core.h"
#include "hom/homomorphism.h"
#include "pebble/pebble_game.h"
#include "structure/generators.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

using std::chrono::milliseconds;

// The {E/2}-structure of two disjoint complete graphs K_n — the classic
// core blowup: reducing it requires refuting homomorphisms into
// one-tuple-removed cliques.
Structure TwoCliques(int n) {
  const Vocabulary voc = GraphVocabulary();
  Structure s(voc, 2 * n);
  for (int copy = 0; copy < 2; ++copy) {
    const int base = copy * n;
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u != v) s.AddTuple(0, {base + u, base + v});
      }
    }
  }
  return s;
}

// Complete digraph with loops on n elements: n^2 E-tuples, so a 3-atom
// chain rule enumerates ~n^4 assignments per stage.
Structure CompleteDigraph(int n) {
  Structure s(GraphVocabulary(), n);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      s.AddTuple(0, {u, v});
    }
  }
  return s;
}

TEST(BudgetTest, UnlimitedNeverStops) {
  Budget budget = Budget::Unlimited();
  EXPECT_TRUE(budget.IsUnlimited());
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(budget.Checkpoint());
  }
  EXPECT_FALSE(budget.Stopped());
  EXPECT_EQ(budget.Reason(), StopReason::kNone);
  EXPECT_EQ(budget.StepsUsed(), 10000u);
}

TEST(BudgetTest, MaxStepsStopsExactlyAndStaysStopped) {
  Budget budget = Budget::MaxSteps(5);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(budget.Checkpoint());
  }
  EXPECT_FALSE(budget.Checkpoint());
  EXPECT_TRUE(budget.Stopped());
  EXPECT_EQ(budget.Reason(), StopReason::kSteps);
  // Spent budgets stay spent.
  EXPECT_FALSE(budget.Checkpoint());
  EXPECT_EQ(budget.Report().reason, StopReason::kSteps);
}

TEST(BudgetTest, ExpiredDeadlineFailsOnFirstCheckpoint) {
  Budget budget = Budget::Timeout(std::chrono::nanoseconds(0));
  EXPECT_FALSE(budget.Checkpoint());
  EXPECT_EQ(budget.Reason(), StopReason::kDeadline);
}

TEST(BudgetTest, CancelFlagObserved) {
  std::atomic<bool> cancel{false};
  Budget budget = Budget::Unlimited();
  budget.WithCancelFlag(&cancel);
  EXPECT_TRUE(budget.Checkpoint());
  cancel.store(true);
  EXPECT_FALSE(budget.Checkpoint());
  EXPECT_EQ(budget.Reason(), StopReason::kCancelled);
}

TEST(BudgetTest, MemoryChargeStops) {
  Budget budget = Budget::Unlimited();
  budget.WithMaxMemoryBytes(100);
  EXPECT_TRUE(budget.ChargeMemory(60));
  EXPECT_TRUE(budget.ChargeMemory(40));  // exactly at the limit
  EXPECT_FALSE(budget.ChargeMemory(1));
  EXPECT_EQ(budget.Reason(), StopReason::kMemory);
  EXPECT_FALSE(budget.Checkpoint());
}

TEST(BudgetTest, StopReasonNames) {
  EXPECT_STREQ(StopReasonName(StopReason::kNone), "none");
  EXPECT_STREQ(StopReasonName(StopReason::kSteps), "steps");
  EXPECT_STREQ(StopReasonName(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(StopReasonName(StopReason::kMemory), "memory");
  EXPECT_STREQ(StopReasonName(StopReason::kCancelled), "cancelled");
}

TEST(OutcomeTest, FinishClassifies) {
  Budget ok = Budget::Unlimited();
  auto done = Outcome<int>::Finish(ok, 7);
  EXPECT_TRUE(done.IsDone());
  EXPECT_EQ(done.Value(), 7);

  Budget spent = Budget::MaxSteps(0);
  EXPECT_FALSE(spent.Checkpoint());
  auto stopped = Outcome<int>::Finish(spent, 7);
  EXPECT_FALSE(stopped.IsDone());
  EXPECT_TRUE(stopped.IsExhausted());
  EXPECT_FALSE(stopped.IsCancelled());
  EXPECT_EQ(stopped.ValueOr(-1), -1);
  EXPECT_EQ(stopped.Report().reason, StopReason::kSteps);
}

// --- Determinism: same input + same step budget => same stop point. ---

TEST(BudgetDeterminismTest, HomomorphismSearchIsStepDeterministic) {
  const Structure a = UndirectedGraphStructure(CompleteGraph(9));
  const Structure b = UndirectedGraphStructure(CompleteGraph(8));
  Budget first = Budget::MaxSteps(500);
  auto r1 = FindHomomorphismBudgeted(a, b, first);
  Budget second = Budget::MaxSteps(500);
  auto r2 = FindHomomorphismBudgeted(a, b, second);
  EXPECT_EQ(r1.IsDone(), r2.IsDone());
  EXPECT_EQ(r1.Report().reason, r2.Report().reason);
  EXPECT_EQ(r1.Report().steps_used, r2.Report().steps_used);
}

TEST(BudgetDeterminismTest, DatalogEvaluationIsStepDeterministic) {
  const Structure edb = CompleteDigraph(12);
  auto program = ParseDatalogProgram(
      "P(x,w) <- E(x,y), E(y,z), E(z,w).", GraphVocabulary());
  ASSERT_TRUE(program.has_value());
  Budget first = Budget::MaxSteps(20000);
  auto r1 = EvaluateSemiNaiveBudgeted(*program, edb, first);
  Budget second = Budget::MaxSteps(20000);
  auto r2 = EvaluateSemiNaiveBudgeted(*program, edb, second);
  EXPECT_EQ(r1.IsDone(), r2.IsDone());
  EXPECT_EQ(r1.Report().steps_used, r2.Report().steps_used);
  EXPECT_TRUE(r1.IsExhausted());
}

// Naive and stage evaluation stop at every step cap: each cap k below
// the unbudgeted step total ends in kSteps with the refused Checkpoint
// counted (k + 1 steps used), and a cap of exactly the total completes
// with the unbudgeted answer.
TEST(BudgetDeterminismTest, NaiveAndStageStopAtEveryStepCap) {
  auto program = ParseDatalogProgram(
      "T(x,y) <- E(x,y). T(x,z) <- T(x,y), E(y,z)."
      " N(x,y) <- T(x,y), T(y,x), x != y.",
      GraphVocabulary());
  ASSERT_TRUE(program.has_value());
  const Structure edb = DirectedCycleStructure(4);

  const DatalogResult naive = EvaluateNaive(*program, edb);
  const uint64_t naive_total = static_cast<uint64_t>(naive.derivations);
  ASSERT_GT(naive_total, 0u);
  for (uint64_t k = 0; k < naive_total; ++k) {
    Budget budget = Budget::MaxSteps(k);
    const auto outcome = EvaluateNaiveBudgeted(*program, edb, budget);
    ASSERT_FALSE(outcome.IsDone()) << "k=" << k;
    EXPECT_EQ(outcome.Report().reason, StopReason::kSteps) << "k=" << k;
    EXPECT_EQ(outcome.Report().steps_used, k + 1) << "k=" << k;
  }
  Budget naive_exact = Budget::MaxSteps(naive_total);
  const auto naive_done = EvaluateNaiveBudgeted(*program, edb, naive_exact);
  ASSERT_TRUE(naive_done.IsDone());
  EXPECT_EQ(naive_done.Report().steps_used, naive_total);
  EXPECT_EQ(naive_done.Value().idb, naive.idb);
  EXPECT_EQ(naive_done.Value().stages, naive.stages);

  const int m = naive.stages + 1;
  Budget unlimited = Budget::Unlimited();
  const auto stage = StageBudgeted(*program, edb, m, unlimited);
  ASSERT_TRUE(stage.IsDone());
  EXPECT_EQ(stage.Value(), naive.idb);
  const uint64_t stage_total = stage.Report().steps_used;
  ASSERT_GT(stage_total, 0u);
  for (uint64_t k = 0; k < stage_total; ++k) {
    Budget budget = Budget::MaxSteps(k);
    const auto outcome = StageBudgeted(*program, edb, m, budget);
    ASSERT_FALSE(outcome.IsDone()) << "k=" << k;
    EXPECT_EQ(outcome.Report().reason, StopReason::kSteps) << "k=" << k;
    EXPECT_EQ(outcome.Report().steps_used, k + 1) << "k=" << k;
  }
  Budget stage_exact = Budget::MaxSteps(stage_total);
  const auto stage_done = StageBudgeted(*program, edb, m, stage_exact);
  ASSERT_TRUE(stage_done.IsDone());
  EXPECT_EQ(stage_done.Report().steps_used, stage_total);
  EXPECT_EQ(stage_done.Value(), naive.idb);
}

// --- Tight deadlines on adversarial inputs return Exhausted (no hang,
// --- no abort). The acceptance bar for the whole layer.

TEST(BudgetDeadlineTest, HomomorphismBlowupExhausts) {
  // K12 -> K11 has no homomorphism, and refuting it exhaustively is
  // astronomically expensive.
  const Structure a = UndirectedGraphStructure(CompleteGraph(12));
  const Structure b = UndirectedGraphStructure(CompleteGraph(11));
  Budget budget = Budget::Timeout(milliseconds(50));
  auto outcome = FindHomomorphismBudgeted(a, b, budget);
  ASSERT_FALSE(outcome.IsDone());
  EXPECT_TRUE(outcome.IsExhausted());
  EXPECT_EQ(outcome.Report().reason, StopReason::kDeadline);
}

TEST(BudgetDeadlineTest, CoreBlowupExhausts) {
  const Structure a = TwoCliques(10);
  Budget budget = Budget::Timeout(milliseconds(50));
  auto outcome = ComputeCoreBudgeted(a, budget);
  ASSERT_FALSE(outcome.IsDone());
  EXPECT_TRUE(outcome.IsExhausted());
  EXPECT_EQ(outcome.Report().reason, StopReason::kDeadline);
}

TEST(BudgetDeadlineTest, PebbleGameBlowupExhausts) {
  // (12 choose <=4) * 12^4 candidate partial maps: far beyond 50ms.
  const Structure a = UndirectedGraphStructure(CompleteGraph(12));
  const Structure b = UndirectedGraphStructure(CompleteGraph(12));
  Budget budget = Budget::Timeout(milliseconds(50));
  auto outcome = DuplicatorWinsExistentialKPebbleGameBudgeted(a, b, 4,
                                                              budget);
  ASSERT_FALSE(outcome.IsDone());
  EXPECT_TRUE(outcome.IsExhausted());
  EXPECT_EQ(outcome.Report().reason, StopReason::kDeadline);
}

TEST(BudgetDeadlineTest, SemiNaiveBlowupExhausts) {
  // ~60^4 rule-body assignments in the first delta round.
  const Structure edb = CompleteDigraph(60);
  auto program = ParseDatalogProgram(
      "P(x,w) <- E(x,y), E(y,z), E(z,w).", GraphVocabulary());
  ASSERT_TRUE(program.has_value());
  Budget budget = Budget::Timeout(milliseconds(50));
  auto outcome = EvaluateSemiNaiveBudgeted(*program, edb, budget);
  ASSERT_FALSE(outcome.IsDone());
  EXPECT_TRUE(outcome.IsExhausted());
  EXPECT_EQ(outcome.Report().reason, StopReason::kDeadline);
}

TEST(BudgetDeadlineTest, PebbleGameMemoryBudgetExhausts) {
  const Structure a = UndirectedGraphStructure(CompleteGraph(10));
  const Structure b = UndirectedGraphStructure(CompleteGraph(10));
  Budget budget = Budget::Unlimited();
  budget.WithMaxMemoryBytes(1024);
  auto outcome = DuplicatorWinsExistentialKPebbleGameBudgeted(a, b, 3,
                                                              budget);
  ASSERT_FALSE(outcome.IsDone());
  EXPECT_EQ(outcome.Report().reason, StopReason::kMemory);
}

// --- Cancellation threads through the search paths. ---

TEST(BudgetCancelTest, PreRaisedFlagCancelsSearch) {
  std::atomic<bool> cancel{true};
  const Structure a = UndirectedGraphStructure(CompleteGraph(8));
  const Structure b = UndirectedGraphStructure(CompleteGraph(7));
  Budget budget = Budget::Unlimited();
  budget.WithCancelFlag(&cancel);
  auto outcome = FindHomomorphismBudgeted(a, b, budget);
  ASSERT_FALSE(outcome.IsDone());
  EXPECT_TRUE(outcome.IsCancelled());
  EXPECT_EQ(outcome.Report().reason, StopReason::kCancelled);
}

// --- Budget::Unlimited() reproduces the seed (unbudgeted) behavior. ---

TEST(BudgetUnlimitedTest, MatchesUnbudgetedHomomorphism) {
  const Structure path = DirectedPathStructure(4);
  const Structure cycle = DirectedCycleStructure(3);
  Budget unlimited = Budget::Unlimited();
  auto budgeted = FindHomomorphismBudgeted(path, cycle, unlimited);
  ASSERT_TRUE(budgeted.IsDone());
  auto plain = FindHomomorphism(path, cycle);
  EXPECT_EQ(budgeted.Value().has_value(), plain.has_value());
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*budgeted.Value(), *plain);
}

TEST(BudgetUnlimitedTest, MatchesUnbudgetedCore) {
  const Structure bicycle = UndirectedGraphStructure(BicycleGraph(5));
  Budget unlimited = Budget::Unlimited();
  auto budgeted = ComputeCoreBudgeted(bicycle, unlimited);
  ASSERT_TRUE(budgeted.IsDone());
  const Structure plain = ComputeCore(bicycle);
  EXPECT_EQ(budgeted.Value().UniverseSize(), plain.UniverseSize());
  EXPECT_TRUE(AreHomEquivalent(budgeted.Value(), plain));
}

TEST(BudgetUnlimitedTest, MatchesUnbudgetedPebbleAndDatalog) {
  const Structure p = DirectedPathStructure(4);
  const Structure c = DirectedCycleStructure(3);
  Budget u1 = Budget::Unlimited();
  auto pebble = DuplicatorWinsExistentialKPebbleGameBudgeted(p, c, 2, u1);
  ASSERT_TRUE(pebble.IsDone());
  EXPECT_EQ(pebble.Value(), DuplicatorWinsExistentialKPebbleGame(p, c, 2));

  auto program = ParseDatalogProgram(
      "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).", GraphVocabulary());
  ASSERT_TRUE(program.has_value());
  Budget u2 = Budget::Unlimited();
  auto budgeted = EvaluateSemiNaiveBudgeted(*program, p, u2);
  ASSERT_TRUE(budgeted.IsDone());
  const DatalogResult plain = EvaluateSemiNaive(*program, p);
  EXPECT_EQ(budgeted.Value().idb, plain.idb);
  EXPECT_EQ(budgeted.Value().stages, plain.stages);
  EXPECT_EQ(budgeted.Value().derivations, plain.derivations);
}

// --- The retrying preservation pipeline. ---

TEST(PreservationRetryTest, CompletesAfterEscalation) {
  const Vocabulary voc = GraphVocabulary();
  const BooleanQuery q = [](const Structure& s) {
    for (const Tuple& t : s.Tuples(0)) {
      if (t[0] == t[1]) return true;
    }
    return false;
  };
  PreservationBudgetOptions options;
  options.initial_steps = 4;  // far too small for attempt 0
  options.initial_timeout = std::chrono::nanoseconds(0);  // unlimited
  options.max_attempts = 12;
  options.escalation_factor = 4;
  PreservationReport report = PreservationPipelineWithRetry(
      q, voc, AllStructuresClass(), /*search_universe=*/2,
      /*verify_universe=*/2, options);
  ASSERT_TRUE(report.completed);
  EXPECT_GT(report.attempts.size(), 1u);  // the first attempts exhausted
  EXPECT_TRUE(report.attempts.back().completed);
  EXPECT_TRUE(report.result.verified);
  ASSERT_EQ(report.result.minimal_models.size(), 1u);
  EXPECT_EQ(report.result.minimal_models[0].UniverseSize(), 1);
  // Earlier attempts recorded their limits and stop reasons.
  EXPECT_EQ(report.attempts[0].max_steps, 4u);
  EXPECT_EQ(report.attempts[0].report.reason, StopReason::kSteps);
}

TEST(PreservationRetryTest, ReportsBestEffortWhenCapped) {
  const Vocabulary voc = GraphVocabulary();
  const BooleanQuery q = [](const Structure& s) {
    return !s.Tuples(0).empty();
  };
  PreservationBudgetOptions options;
  options.initial_steps = 30;  // enough to confirm some minimal model
  options.initial_timeout = std::chrono::nanoseconds(0);
  options.max_attempts = 2;
  options.escalation_factor = 1;  // never escalates: stays too small
  PreservationReport report = PreservationPipelineWithRetry(
      q, voc, AllStructuresClass(), /*search_universe=*/3,
      /*verify_universe=*/3, options);
  EXPECT_FALSE(report.completed);
  ASSERT_EQ(report.attempts.size(), 2u);
  for (const PreservationAttempt& attempt : report.attempts) {
    EXPECT_FALSE(attempt.completed);
    EXPECT_EQ(attempt.report.reason, StopReason::kSteps);
  }
  EXPECT_FALSE(report.result.verified);
}

TEST(PreservationRetryTest, CancellationStopsEscalation) {
  std::atomic<bool> cancel{true};
  const Vocabulary voc = GraphVocabulary();
  const BooleanQuery q = [](const Structure& s) {
    return !s.Tuples(0).empty();
  };
  PreservationBudgetOptions options;
  options.initial_steps = 0;  // unlimited steps: only the flag stops it
  options.initial_timeout = std::chrono::nanoseconds(0);
  options.max_attempts = 5;
  options.cancel = &cancel;
  PreservationReport report = PreservationPipelineWithRetry(
      q, voc, AllStructuresClass(), 2, 2, options);
  EXPECT_FALSE(report.completed);
  ASSERT_EQ(report.attempts.size(), 1u);  // no retry after cancellation
  EXPECT_EQ(report.attempts[0].report.reason, StopReason::kCancelled);
}

TEST(PreservationRetryTest, BudgetedPipelineMatchesUnbudgeted) {
  const Vocabulary voc = GraphVocabulary();
  const BooleanQuery q = [](const Structure& s) {
    for (const Tuple& t : s.Tuples(0)) {
      if (t[0] == t[1]) return true;
    }
    return false;
  };
  const PreservationResult plain =
      PreservationPipeline(q, voc, AllStructuresClass(), 2, 2);
  Budget unlimited = Budget::Unlimited();
  auto budgeted = PreservationPipelineBudgeted(
      q, voc, AllStructuresClass(), 2, 2, unlimited);
  ASSERT_TRUE(budgeted.IsDone());
  EXPECT_EQ(budgeted.Value().minimal_models.size(),
            plain.minimal_models.size());
  EXPECT_EQ(budgeted.Value().verified, plain.verified);
}

// --- Budgeted minimal-model search surfaces partial results. ---

TEST(BudgetTest, HugeTimeoutSaturatesToUnlimited) {
  // A timeout near the clock's maximum must not overflow `now + timeout`
  // into the past (which would stop every Checkpoint immediately): it
  // saturates to "no deadline".
  Budget huge = Budget::Timeout(std::chrono::nanoseconds::max());
  EXPECT_TRUE(huge.IsUnlimited());
  EXPECT_TRUE(huge.Checkpoint());

  Budget almost = Budget::Timeout(std::chrono::hours(24 * 365));
  EXPECT_FALSE(almost.IsUnlimited());
  EXPECT_TRUE(almost.Checkpoint());  // a year out: still running

  Budget past = Budget::Timeout(std::chrono::nanoseconds(0));
  // Zero-or-negative timeouts stay real deadlines and expire at once.
  EXPECT_FALSE(past.Checkpoint());
  EXPECT_EQ(past.Report().reason, StopReason::kDeadline);
}

TEST(MinimalModelsBudgetTest, PartialSurvivesExhaustion) {
  const Vocabulary voc = GraphVocabulary();
  const BooleanQuery q = [](const Structure& s) {
    return !s.Tuples(0).empty();
  };
  // Generous enough to confirm the single-loop minimal model, small
  // enough to exhaust before finishing universe size 3.
  Budget budget = Budget::MaxSteps(40);
  std::vector<Structure> partial;
  auto outcome = MinimalModelsBySearchBudgeted(q, voc, AllStructuresClass(),
                                               /*max_universe=*/3, budget,
                                               &partial);
  ASSERT_FALSE(outcome.IsDone());
  ASSERT_GE(partial.size(), 1u);
  EXPECT_EQ(partial[0].UniverseSize(), 1);
  EXPECT_TRUE(partial[0].HasTuple(0, {0, 0}));
}

}  // namespace
}  // namespace hompres
