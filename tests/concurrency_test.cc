// Concurrency behavior of the parallel engine: thread-pool lifecycle,
// budget exhaustion and cancellation across threads, and serial/parallel
// agreement for every consumer that fans work out (core computation,
// Datalog evaluation, UCQ satisfaction, minimal models). These tests are
// the TSan job's main payload: they exercise the cross-thread channels
// (shared step counter, per-task cancel flags, task-state publication)
// under real contention.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/thread_pool.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "core/classes.h"
#include "core/minimal_models.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "engine/config.h"
#include "engine/engine.h"
#include "graph/builders.h"
#include "hom/core.h"
#include "hom/homomorphism.h"
#include "opt/optimizer.h"
#include "structure/generators.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

using std::chrono::milliseconds;

// Level-L iterated Mycielskian of K2 mapped to K_{L+1}: unsatisfiable
// (chromatic number L+2), so the search runs the full subtree — the
// standard hard instance for exhaustion/cancellation tests.
Structure MycielskiInstance(int level) {
  Graph g = CompleteGraph(2);
  for (int i = 0; i < level; ++i) g = MycielskiGraph(g);
  return UndirectedGraphStructure(g);
}

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 40; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.WaitIdle();
    EXPECT_EQ(counter.load(), 40 * (batch + 1));
  }
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SubmitFromWorkerThread) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&pool, &counter] {
      counter.fetch_add(1);
      pool.Submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 40);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 30; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        counter.fetch_add(1);
      });
    }
    // No WaitIdle: the destructor must drain the queue before joining.
  }
  EXPECT_EQ(counter.load(), 30);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(pool, 100, [&hits](int i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// The workers of one parallel search draw from a single shared step pool,
// so a small step budget stops the whole search with kSteps no matter how
// the work was divided.
TEST(ParallelBudget, StepExhaustionAcrossWorkers) {
  Structure a = MycielskiInstance(2);  // Grötzsch graph, chi = 4
  Structure k3 = UndirectedGraphStructure(CompleteGraph(3));
  EngineConfig options;
  options.num_threads = 3;
  options.use_arc_consistency = false;  // force a deep search
  Budget budget = Budget::MaxSteps(50);
  auto result = FindHomomorphismBudgeted(a, k3, budget, options);
  ASSERT_FALSE(result.IsDone());
  EXPECT_TRUE(result.IsExhausted());
  EXPECT_EQ(result.Report().reason, StopReason::kSteps);
  EXPECT_GE(result.Report().steps_used, 1u);
}

TEST(ParallelBudget, StepExhaustionWhileCounting) {
  Structure a = MycielskiInstance(2);
  Structure k3 = UndirectedGraphStructure(CompleteGraph(3));
  EngineConfig options;
  options.num_threads = 3;
  options.use_arc_consistency = false;
  Budget budget = Budget::MaxSteps(50);
  auto result = CountHomomorphismsBudgeted(a, k3, budget, 0, options);
  ASSERT_FALSE(result.IsDone());
  EXPECT_EQ(result.Report().reason, StopReason::kSteps);
}

TEST(ParallelBudget, ExpiredDeadlineStopsWorkers) {
  Structure a = MycielskiInstance(2);
  Structure k3 = UndirectedGraphStructure(CompleteGraph(3));
  EngineConfig options;
  options.num_threads = 3;
  Budget budget = Budget::Timeout(std::chrono::nanoseconds(0));
  auto result = FindHomomorphismBudgeted(a, k3, budget, options);
  ASSERT_FALSE(result.IsDone());
  EXPECT_EQ(result.Report().reason, StopReason::kDeadline);
}

TEST(ParallelBudget, CancellationBeforeStart) {
  Structure a = MycielskiInstance(2);
  Structure k3 = UndirectedGraphStructure(CompleteGraph(3));
  EngineConfig options;
  options.num_threads = 3;
  std::atomic<bool> cancel{true};  // raised before the search begins
  Budget budget = Budget().WithCancelFlag(&cancel);
  auto result = FindHomomorphismBudgeted(a, k3, budget, options);
  ASSERT_FALSE(result.IsDone());
  EXPECT_TRUE(result.IsCancelled());
}

TEST(ParallelBudget, CancellationMidSearch) {
  // A long unsatisfiable search (23-vertex Mycielskian -> K4, naive
  // backtracking so it cannot finish quickly), cancelled from another
  // thread shortly after it starts. The 10s deadline is only a backstop
  // so a regression cannot hang the suite; the expected stop is the
  // cancellation.
  Structure a = MycielskiInstance(3);
  Structure k4 = UndirectedGraphStructure(CompleteGraph(4));
  EngineConfig options;
  options.num_threads = 3;
  options.use_arc_consistency = false;
  std::atomic<bool> cancel{false};
  Budget budget =
      Budget().WithCancelFlag(&cancel).WithTimeout(std::chrono::seconds(10));
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(milliseconds(20));
    cancel.store(true);
  });
  auto result = FindHomomorphismBudgeted(a, k4, budget, options);
  canceller.join();
  ASSERT_FALSE(result.IsDone());
  EXPECT_TRUE(result.IsCancelled())
      << "stopped with " << StopReasonName(result.Report().reason);
}

// An ample budget must not change the answer: the parallel engine settles
// its workers' consumption back into the caller's budget and completes.
TEST(ParallelBudget, AmpleBudgetCompletesAndSettlesSteps) {
  Structure a = MycielskiInstance(2);
  Structure k4 = UndirectedGraphStructure(CompleteGraph(4));  // satisfiable
  EngineConfig options;
  options.num_threads = 3;
  Budget budget = Budget::MaxSteps(1u << 20);
  auto result = FindHomomorphismBudgeted(a, k4, budget, options);
  ASSERT_TRUE(result.IsDone());
  ASSERT_TRUE(result.Value().has_value());
  EXPECT_TRUE(VerifyHomomorphism(a, k4, *result.Value()));
  EXPECT_GE(budget.StepsUsed(), 1u);  // workers' steps were charged back
}

TEST(ParallelConsumers, CoreMatchesSerial) {
  for (int n : {5, 7}) {
    Structure b = UndirectedGraphStructure(BicycleGraph(n));
    Structure serial = ComputeCore(b);
    Structure parallel = ComputeCore(b, 3);
    EXPECT_EQ(serial, parallel) << "n=" << n;
    EXPECT_EQ(parallel.UniverseSize(), 4);  // core of a bicycle is K4
    EXPECT_TRUE(IsCore(parallel, 3));
    EXPECT_FALSE(IsCore(b, 3));
  }
}

TEST(ParallelConsumers, DatalogMatchesSerial) {
  Rng rng(417);
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  for (int trial = 0; trial < 10; ++trial) {
    Structure edb =
        RandomStructure(GraphVocabulary(), 3 + trial % 4, 2 + trial, rng);
    DatalogResult serial = EvaluateSemiNaive(tc, edb);
    DatalogResult parallel = EvaluateSemiNaive(tc, edb, 3);
    EXPECT_EQ(serial.idb, parallel.idb) << "trial " << trial;
    EXPECT_EQ(serial.stages, parallel.stages) << "trial " << trial;
    EXPECT_EQ(serial.derivations, parallel.derivations) << "trial " << trial;
  }
}

// UCQ satisfaction through the parallel paths production uses: each
// disjunct's has and count run through the engine with three threads,
// and the optimizer's parallel minimization, against the serial answers.
TEST(ParallelConsumers, UcqSatisfactionMatchesSerial) {
  Rng rng(418);
  UnionOfCq q({ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(3)),
               ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(3)),
               ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(4))});
  EngineConfig parallel;
  parallel.num_threads = 3;
  for (int trial = 0; trial < 20; ++trial) {
    Structure b =
        RandomStructure(GraphVocabulary(), 2 + trial % 5, trial % 7, rng);
    bool any = false;
    for (const ConjunctiveQuery& d : q.Disjuncts()) {
      Budget has_budget = Budget::Unlimited();
      const bool has =
          Engine::Has(d.Canonical(), b, has_budget, parallel).Value();
      EXPECT_EQ(has, d.SatisfiedBy(b)) << "trial " << trial;
      Budget count_budget = Budget::Unlimited();
      EXPECT_EQ(
          Engine::Count(d.Canonical(), b, count_budget, 0, parallel).Value(),
          CountHomomorphisms(d.Canonical(), b))
          << "trial " << trial;
      any = any || has;
    }
    EXPECT_EQ(any, q.SatisfiedBy(b)) << "trial " << trial;
  }

  // path3 is subsumed by path2, and the disjuncts carry redundant atoms
  // for minimization to drop.
  UnionOfCq redundant(
      {ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(3)),
       ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(2)),
       ConjunctiveQuery::BooleanQueryOf(
           UndirectedGraphStructure(CycleGraph(6))),
       ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(4))});
  OptimizerOptions serial_options;
  serial_options.use_cache = false;  // every probe searches
  OptimizerOptions parallel_options = serial_options;
  parallel_options.num_threads = 3;
  Budget serial_budget = Budget::Unlimited();
  Budget parallel_budget = Budget::Unlimited();
  const UnionOfCq serial_min =
      OptimizeUcqBudgeted(redundant, serial_budget, serial_options);
  const UnionOfCq parallel_min =
      OptimizeUcqBudgeted(redundant, parallel_budget, parallel_options);
  EXPECT_EQ(serial_min.ToString(), parallel_min.ToString());
  EXPECT_LT(serial_min.Disjuncts().size(), redundant.Disjuncts().size());
}

TEST(ParallelConsumers, MinimalModelsMatchSerial) {
  UnionOfCq q({ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(2)),
               ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(3))});
  const auto serial = MinimalModelsOfUcq(q, AllStructuresClass());
  const auto parallel = MinimalModelsOfUcq(q, AllStructuresClass(), 3);
  // The parallel enumeration merges candidates in serial order, so the
  // lists agree element-for-element, not merely up to isomorphism.
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "model " << i;
  }
}

TEST(ParallelConsumers, MinimalModelsBudgetExhaustion) {
  UnionOfCq q({ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(3))});
  Budget budget = Budget::MaxSteps(2);
  auto result = MinimalModelsOfUcqBudgeted(q, AllStructuresClass(), budget, 3);
  ASSERT_FALSE(result.IsDone());
  EXPECT_EQ(result.Report().reason, StopReason::kSteps);
}

TEST(ParallelConsumers, CoreBudgetExhaustion) {
  Structure b = UndirectedGraphStructure(BicycleGraph(9));
  Budget budget = Budget::MaxSteps(20);
  auto result = ComputeCoreBudgeted(b, budget, 3);
  ASSERT_FALSE(result.IsDone());
  EXPECT_EQ(result.Report().reason, StopReason::kSteps);
}

// Oversubscription: more threads than tasks or hardware must still give
// the right answer (the pool just idles the surplus workers).
TEST(ParallelConsumers, ManyThreadsSmallInstance) {
  Structure c3 = UndirectedGraphStructure(CycleGraph(3));
  Structure k3 = UndirectedGraphStructure(CompleteGraph(3));
  EngineConfig options;
  options.num_threads = 16;
  EXPECT_TRUE(FindHomomorphism(c3, k3, options).has_value());
  EXPECT_EQ(CountHomomorphisms(c3, k3, 0, options), 6u);
  Structure k2 = UndirectedGraphStructure(CompleteGraph(2));
  EXPECT_FALSE(FindHomomorphism(k3, k2, options).has_value());
}

}  // namespace
}  // namespace hompres
