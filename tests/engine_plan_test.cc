// Tests for the engine's planning layer: determinism and golden-stable
// Explain/Summary output, the audited validation table in both strict
// and compatibility modes, the cache/factorization/parallel passes, and
// the execution-side guarantees the plans encode (a cache hit charges no
// budget steps; an out-of-range forced pair is a certain "no" without
// search).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "base/simd.h"
#include "engine/config.h"
#include "engine/engine.h"
#include "engine/ordering.h"
#include "engine/plan.h"
#include "engine/problem.h"
#include "gtest/gtest.h"
#include "hom/core.h"
#include "hom/hom_cache.h"
#include "structure/structure.h"

namespace hompres {
namespace {

Vocabulary GraphVocabulary() {
  Vocabulary voc;
  voc.AddRelation("E", 2);
  return voc;
}

// Path 0 - 1 - 2: one Gaifman component, element 1 in two tuples.
Structure Path3() {
  Structure a(GraphVocabulary(), 3);
  a.AddTuple(0, {0, 1});
  a.AddTuple(0, {1, 2});
  return a;
}

// Two disjoint edges: two Gaifman components {0,1} and {2,3}.
Structure TwoEdges() {
  Structure a(GraphVocabulary(), 4);
  a.AddTuple(0, {0, 1});
  a.AddTuple(0, {2, 3});
  return a;
}

// Triangle 0-1-2 (directed cycle plus reverse edges): every path maps in.
Structure Triangle() {
  Structure b(GraphVocabulary(), 3);
  b.AddTuple(0, {0, 1});
  b.AddTuple(0, {1, 2});
  b.AddTuple(0, {2, 0});
  b.AddTuple(0, {1, 0});
  b.AddTuple(0, {2, 1});
  b.AddTuple(0, {0, 2});
  return b;
}

HomProblem MakeProblem(const Structure& a, const Structure& b,
                       HomQueryMode mode) {
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = mode;
  return problem;
}

TEST(EnginePlan, PlanningIsDeterministic) {
  const Structure a = TwoEdges();
  const Structure b = Triangle();
  for (const HomQueryMode mode :
       {HomQueryMode::kHas, HomQueryMode::kFind, HomQueryMode::kCount,
        HomQueryMode::kEnumerate}) {
    HomProblem problem = MakeProblem(a, b, mode);
    if (mode == HomQueryMode::kEnumerate) {
      problem.callback = [](const std::vector<int>&) { return true; };
    }
    EngineConfig config;
    config.num_threads = 2;
    const PlanResult first = PlanHomQuery(problem, config, PlanMode::kCompat);
    const PlanResult second = PlanHomQuery(problem, config, PlanMode::kCompat);
    ASSERT_TRUE(first.plan.has_value());
    ASSERT_TRUE(second.plan.has_value());
    EXPECT_EQ(first.plan->Explain(), second.plan->Explain());
    EXPECT_EQ(first.plan->Summary(), second.plan->Summary());
  }
}

TEST(EnginePlan, ExplainAndSummaryAreGoldenStable) {
  // The dispatched SIMD level is machine-dependent; pin it to scalar so
  // the golden strings are stable everywhere (the detected level still
  // varies, so Explain's parenthetical is matched structurally below).
  simd::ScopedSimdOverride forced_scalar(simd::SimdLevel::kScalar);
  const Structure a = Path3();
  const Structure b = Triangle();
  const PlanResult planned =
      PlanHomQuery(MakeProblem(a, b, HomQueryMode::kFind), EngineConfig{});
  ASSERT_TRUE(planned.plan.has_value());
  EXPECT_EQ(planned.plan->Summary(),
            "mode=find strategy=serial kernel=ac-bitset simd=scalar "
            "components=1 tasks=1 cache=0");
  const std::string expected_explain =
      "HomPlan\n"
      "  mode: find\n"
      "  strategy: serial\n"
      "  kernel: ac-bitset (index narrowing on)\n"
      "  simd: scalar (detected " +
      std::string(simd::SimdLevelName(simd::DetectedSimdLevel())) +
      ")\n"
      "  cache: off\n"
      "  components: 1 (monolithic)\n"
      "  split: none\n"
      "  forced: 0 pairs\n"
      "  adjustments: none\n";
  EXPECT_EQ(planned.plan->Explain(), expected_explain);
}

TEST(EnginePlan, StrictModeRejectsEachAuditedCombination) {
  const Structure a = Path3();
  const Structure b = Triangle();
  const auto expect_error = [&](const HomProblem& problem,
                                const EngineConfig& config,
                                PlanErrorCode code) {
    const PlanResult planned = PlanHomQuery(problem, config, PlanMode::kStrict);
    ASSERT_TRUE(planned.error.has_value())
        << "expected " << PlanErrorCodeName(code);
    EXPECT_EQ(static_cast<int>(planned.error->code), static_cast<int>(code));
    EXPECT_FALSE(planned.plan.has_value());
    // The stable name leads the message, so callers can match on it.
    EXPECT_EQ(planned.error->message.rfind(PlanErrorCodeName(code), 0), 0u)
        << planned.error->message;
  };

  {
    EngineConfig config;
    config.use_cache = true;
    expect_error(MakeProblem(a, b, HomQueryMode::kFind), config,
                 PlanErrorCode::kCacheWithFind);
    HomProblem problem = MakeProblem(a, b, HomQueryMode::kEnumerate);
    problem.callback = [](const std::vector<int>&) { return true; };
    expect_error(problem, config, PlanErrorCode::kCacheWithEnumerate);
  }
  {
    EngineConfig config;
    config.surjective = true;  // factorize defaults on
    expect_error(MakeProblem(a, b, HomQueryMode::kHas), config,
                 PlanErrorCode::kFactorizeWithSurjective);
  }
  {
    EngineConfig config;
    config.forced.emplace_back(0, 0);
    expect_error(MakeProblem(a, b, HomQueryMode::kHas), config,
                 PlanErrorCode::kFactorizeWithForced);
  }
  {
    EngineConfig config;
    config.use_arc_consistency = false;  // use_index defaults on
    expect_error(MakeProblem(a, b, HomQueryMode::kHas), config,
                 PlanErrorCode::kIndexWithoutArcConsistency);
  }
  {
    Vocabulary other;
    other.AddRelation("R", 1);
    const Structure mismatched(other, 1);
    expect_error(MakeProblem(a, mismatched, HomQueryMode::kHas),
                 EngineConfig{}, PlanErrorCode::kVocabularyMismatch);
  }
  expect_error(MakeProblem(a, b, HomQueryMode::kEnumerate), EngineConfig{},
               PlanErrorCode::kMissingCallback);
  {
    HomProblem problem = MakeProblem(a, b, HomQueryMode::kFind);
    problem.limit = 5;
    expect_error(problem, EngineConfig{}, PlanErrorCode::kLimitOutsideCount);
  }
}

TEST(EnginePlan, ModeDrivenNormalizationsApplyEvenInStrictMode) {
  const Structure a = Path3();
  const Structure b = Triangle();
  // Enumeration is always serial and monolithic: the default config must
  // stay valid in every mode, so these are adjustments, not errors.
  HomProblem problem = MakeProblem(a, b, HomQueryMode::kEnumerate);
  problem.callback = [](const std::vector<int>&) { return true; };
  EngineConfig config;
  config.num_threads = 4;
  const PlanResult planned = PlanHomQuery(problem, config, PlanMode::kStrict);
  ASSERT_TRUE(planned.plan.has_value());
  EXPECT_EQ(planned.plan->config.num_threads, 0);
  EXPECT_FALSE(planned.plan->config.factorize);
  EXPECT_EQ(planned.plan->adjustments.size(), 2u);
  EXPECT_EQ(static_cast<int>(planned.plan->strategy),
            static_cast<int>(ExecStrategy::kSerial));

  // deterministic_witness is a no-op without a thread pool.
  EngineConfig det;
  det.deterministic_witness = true;
  const PlanResult det_planned =
      PlanHomQuery(MakeProblem(a, b, HomQueryMode::kFind), det,
                   PlanMode::kStrict);
  ASSERT_TRUE(det_planned.plan.has_value());
  EXPECT_FALSE(det_planned.plan->config.deterministic_witness);
  EXPECT_EQ(det_planned.plan->adjustments.size(), 1u);
}

// A projection plans like an enumeration: the same strict errors, and
// serial, monolithic and uncached even where a has query would factorize.
TEST(EnginePlan, ProjectPlansLikeEnumerate) {
  const Structure a = TwoEdges();
  const Structure b = Triangle();
  HomProblem problem = MakeProblem(a, b, HomQueryMode::kProject);
  problem.free = {0, 3, 0};
  {
    const PlanResult planned =
        PlanHomQuery(problem, EngineConfig{}, PlanMode::kStrict);
    ASSERT_TRUE(planned.error.has_value());
    EXPECT_EQ(static_cast<int>(planned.error->code),
              static_cast<int>(PlanErrorCode::kMissingCallback));
  }
  std::vector<std::vector<int>> answers;
  problem.callback = [&](const std::vector<int>& answer) {
    answers.push_back(answer);
    return true;
  };
  {
    EngineConfig cached;
    cached.use_cache = true;
    const PlanResult planned = PlanHomQuery(problem, cached, PlanMode::kStrict);
    ASSERT_TRUE(planned.error.has_value());
    EXPECT_EQ(static_cast<int>(planned.error->code),
              static_cast<int>(PlanErrorCode::kCacheWithEnumerate));
  }
  EngineConfig config;
  config.num_threads = 4;
  const PlanResult planned = PlanHomQuery(problem, config, PlanMode::kStrict);
  ASSERT_TRUE(planned.plan.has_value());
  const HomPlan& plan = *planned.plan;
  EXPECT_EQ(plan.config.num_threads, 0);
  EXPECT_FALSE(plan.config.factorize);
  EXPECT_EQ(plan.adjustments.size(), 2u);
  EXPECT_FALSE(plan.consult_cache);
  EXPECT_EQ(static_cast<int>(plan.strategy),
            static_cast<int>(ExecStrategy::kSerial));
  EXPECT_NE(plan.Explain().find("  mode: project (free=[0, 3, 0])\n"),
            std::string::npos)
      << plan.Explain();
  EXPECT_EQ(plan.Summary().rfind("mode=project strategy=serial", 0), 0u);

  // Each binding of the free elements that extends is emitted once, as
  // the tuple of its images (element 0 repeated). Every triangle vertex
  // has an out-edge (for 0) and an in-edge (for 3): all nine extend.
  Budget budget = Budget::Unlimited();
  const auto out = Engine::Execute(plan, budget);
  ASSERT_TRUE(out.IsDone());
  EXPECT_TRUE(out.Value().enumeration_completed);
  std::sort(answers.begin(), answers.end());
  std::vector<std::vector<int>> expected;
  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 3; ++y) expected.push_back({x, y, x});
  }
  EXPECT_EQ(answers, expected);
}

// The vertex-cover cut-off charges only the nodes it visits. Source: a
// star, centre 0 with edges to 1, 2, 3. Target: a star, centre 0 with
// edges to 1..4. After AC the centre's domain is {0} and each leaf's is
// {1..4}, so the centre is assigned first and its one child covers every
// edge: 4^3 = 64 maps from 2 nodes, where enumeration walks all
// 1 + 1 + 4 + 16 + 64 = 86.
TEST(EngineExecution, VertexCoverCutOffChargesOnlyVisitedNodes) {
  Structure star(GraphVocabulary(), 4);
  for (int leaf = 1; leaf <= 3; ++leaf) star.AddTuple(0, {0, leaf});
  Structure target(GraphVocabulary(), 5);
  for (int leaf = 1; leaf <= 4; ++leaf) target.AddTuple(0, {0, leaf});

  Budget count_budget = Budget::Unlimited();
  EXPECT_EQ(Engine::Count(star, target, count_budget, 0).Value(), 64u);
  EXPECT_EQ(count_budget.Report().steps_used, 2u);

  // The first leaf below the cut-off: every domain's first value.
  Budget find_budget = Budget::Unlimited();
  EXPECT_EQ(Engine::Find(star, target, find_budget).Value(),
            std::optional<std::vector<int>>({0, 1, 1, 1}));
  EXPECT_EQ(find_budget.Report().steps_used, 2u);

  // A limit the product overshoots clamps the count.
  Budget limit_budget = Budget::Unlimited();
  EXPECT_EQ(Engine::Count(star, target, limit_budget, 10).Value(), 10u);

  // Enumeration visits every map: nothing is cut.
  Budget enum_budget = Budget::Unlimited();
  int maps = 0;
  Engine::Enumerate(star, target, enum_budget, [&](const std::vector<int>&) {
    ++maps;
    return true;
  });
  EXPECT_EQ(maps, 64);
  EXPECT_EQ(enum_budget.Report().steps_used, 86u);

  // Projecting onto leaf 1 branches on it first (root + 4 children);
  // each binding then needs one more node, the centre, to reach a cover.
  Budget project_budget = Budget::Unlimited();
  std::vector<std::vector<int>> answers;
  Engine::Project(star, target, project_budget, {1},
                  [&](const std::vector<int>& answer) {
                    answers.push_back(answer);
                    return true;
                  });
  EXPECT_EQ(answers, (std::vector<std::vector<int>>{{1}, {2}, {3}, {4}}));
  EXPECT_EQ(project_budget.Report().steps_used, 9u);

  // Projecting onto the centre and a leaf: binding the centre (the
  // smaller domain) already covers every edge, so its node is a cut-off
  // that emits the leaf's four values.
  Budget pair_budget = Budget::Unlimited();
  answers.clear();
  Engine::Project(star, target, pair_budget, {0, 2},
                  [&](const std::vector<int>& answer) {
                    answers.push_back(answer);
                    return true;
                  });
  EXPECT_EQ(answers.size(), 4u);
  EXPECT_EQ(pair_budget.Report().steps_used, 2u);
}

TEST(EnginePlan, CompatModeNormalizesAndRecordsAdjustments) {
  const Structure a = TwoEdges();
  const Structure b = Triangle();
  EngineConfig config;
  config.use_cache = true;           // incompatible with find
  config.surjective = true;          // incompatible with factorize
  config.use_arc_consistency = false;  // incompatible with use_index
  const PlanResult planned = PlanHomQuery(
      MakeProblem(a, b, HomQueryMode::kFind), config, PlanMode::kCompat);
  ASSERT_TRUE(planned.plan.has_value());
  const HomPlan& plan = *planned.plan;
  EXPECT_FALSE(plan.config.use_cache);
  EXPECT_FALSE(plan.config.factorize);
  EXPECT_FALSE(plan.config.use_index);
  EXPECT_EQ(plan.adjustments.size(), 3u);
  EXPECT_FALSE(plan.consult_cache);
  // Surjectivity survives normalization and forces the monolithic serial
  // naive kernel.
  EXPECT_TRUE(plan.config.surjective);
  EXPECT_EQ(static_cast<int>(plan.kernel),
            static_cast<int>(SerialKernel::kNaiveBacktracking));
  EXPECT_EQ(static_cast<int>(plan.strategy),
            static_cast<int>(ExecStrategy::kSerial));
}

TEST(EnginePlan, CachePlansDeferDispatchAndCarryFingerprints) {
  const Structure a = TwoEdges();  // would factorize without the cache
  const Structure b = Triangle();
  EngineConfig config;
  config.use_cache = true;
  const PlanResult planned = PlanHomQuery(
      MakeProblem(a, b, HomQueryMode::kHas), config, PlanMode::kStrict);
  ASSERT_TRUE(planned.plan.has_value());
  const HomPlan& plan = *planned.plan;
  EXPECT_TRUE(plan.consult_cache);
  // Dispatch analysis is deferred to the cache-miss path: no component
  // or split work is done up front.
  EXPECT_TRUE(plan.components.empty());
  EXPECT_TRUE(plan.split_elements.empty());
  EXPECT_EQ(plan.source_fingerprint, a.Fingerprint());
  EXPECT_EQ(plan.target_fingerprint, b.Fingerprint());
  EXPECT_EQ(plan.options_digest, CacheOptionsDigest(plan.config, 0));
}

TEST(EnginePlan, FactorizationPassSplitsDisconnectedSources) {
  const Structure a = TwoEdges();
  const Structure b = Triangle();
  const PlanResult planned =
      PlanHomQuery(MakeProblem(a, b, HomQueryMode::kHas), EngineConfig{});
  ASSERT_TRUE(planned.plan.has_value());
  EXPECT_EQ(static_cast<int>(planned.plan->strategy),
            static_cast<int>(ExecStrategy::kFactorized));
  ASSERT_EQ(planned.plan->components.size(), 2u);
  EXPECT_EQ(planned.plan->components[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(planned.plan->components[1], (std::vector<int>{2, 3}));

  // A connected source stays monolithic.
  const Structure path = Path3();
  const PlanResult connected =
      PlanHomQuery(MakeProblem(path, b, HomQueryMode::kHas), EngineConfig{});
  ASSERT_TRUE(connected.plan.has_value());
  EXPECT_EQ(static_cast<int>(connected.plan->strategy),
            static_cast<int>(ExecStrategy::kSerial));
  EXPECT_TRUE(connected.plan->components.empty());
}

TEST(EnginePlan, ParallelPassChoosesOccurrenceOrderedSplits) {
  const Structure a = Path3();
  const Structure b = Triangle();
  EngineConfig config;
  config.num_threads = 2;
  const PlanResult planned = PlanHomQuery(
      MakeProblem(a, b, HomQueryMode::kHas), config, PlanMode::kStrict);
  ASSERT_TRUE(planned.plan.has_value());
  const HomPlan& plan = *planned.plan;
  EXPECT_EQ(static_cast<int>(plan.strategy),
            static_cast<int>(ExecStrategy::kParallelSplit));
  EXPECT_GE(plan.split_tasks, 2u);
  ASSERT_FALSE(plan.split_elements.empty());
  // Element 1 occurs in two tuples, the endpoints in one each: the
  // occurrence order branches on 1 first.
  EXPECT_EQ(plan.split_elements[0], 1);
  // Each split element crosses in the full target range.
  EXPECT_EQ(plan.split_tasks,
            static_cast<size_t>(std::pow(3, plan.split_elements.size())));
}

TEST(EnginePlan, SplitChoiceRespectsCapsAndTrivialTargets) {
  const Structure a = Path3();
  const Structure b = Triangle();
  const SplitChoice choice = ChooseSplitElements(a, b, {}, 2);
  EXPECT_LE(choice.elements.size(), 3u);
  EXPECT_LE(choice.num_tasks, 512u);
  EXPECT_GE(choice.num_tasks, 2u);

  // Target universe < 2: nothing to split over.
  const Structure point(GraphVocabulary(), 1);
  const SplitChoice trivial = ChooseSplitElements(a, point, {}, 2);
  EXPECT_TRUE(trivial.elements.empty());
  EXPECT_EQ(trivial.num_tasks, 1u);
}

TEST(EnginePlan, CacheHitAnswersWithZeroBudgetSteps) {
  HomCache::Global().Clear();
  const Structure a = Path3();
  const Structure b = Triangle();
  EngineConfig config;
  config.use_cache = true;

  // Warm the cache.
  Budget warm = Budget::Unlimited();
  ASSERT_TRUE(Engine::Has(a, b, warm, config).Value());

  // A zero-step budget fails every Checkpoint, so completing proves the
  // hit path charges nothing.
  const PlanResult planned = PlanHomQuery(
      MakeProblem(a, b, HomQueryMode::kHas), config, PlanMode::kStrict);
  ASSERT_TRUE(planned.plan.has_value());
  Budget zero = Budget::MaxSteps(0);
  ExecutionTrace trace;
  const auto out = Engine::Execute(*planned.plan, zero, &trace);
  ASSERT_TRUE(out.IsDone());
  EXPECT_TRUE(out.Value().has);
  EXPECT_TRUE(trace.cache_consulted);
  EXPECT_TRUE(trace.cache_hit);
  EXPECT_EQ(trace.steps_charged, 0u);
}

TEST(EnginePlan, OutOfRangeForcedPairIsACertainNoWithoutSearch) {
  const Structure a = Path3();
  const Structure b = Triangle();
  EngineConfig config;
  config.forced.emplace_back(0, 99);  // 99 outside b's universe
  config.factorize = false;
  const PlanResult planned = PlanHomQuery(
      MakeProblem(a, b, HomQueryMode::kHas), config, PlanMode::kStrict);
  ASSERT_TRUE(planned.plan.has_value());
  EXPECT_FALSE(planned.plan->forced_in_range);
  Budget zero = Budget::MaxSteps(0);  // the certain "no" must not search
  const auto out = Engine::Execute(*planned.plan, zero);
  ASSERT_TRUE(out.IsDone());
  EXPECT_FALSE(out.Value().has);
}

// --- Stop-reason propagation: every mode x config x budget stop. ---

namespace stop_table {

// A raised flag the cancel rows share; never reset (the budget only
// reads it).
std::atomic<bool> g_always_cancelled{true};

struct StopRow {
  const char* name;
  StopReason want;
};

Budget MakeStoppedBudget(StopReason want) {
  switch (want) {
    case StopReason::kSteps:
      return Budget::MaxSteps(1);
    case StopReason::kDeadline:
      return Budget::Timeout(std::chrono::nanoseconds(0));
    case StopReason::kMemory: {
      Budget budget;
      budget.WithMaxMemoryBytes(1);
      budget.ChargeMemory(2);  // pre-exhausted: first checkpoint stops
      return budget;
    }
    case StopReason::kCancelled: {
      Budget budget;
      budget.WithCancelFlag(&g_always_cancelled);
      return budget;
    }
    default:
      ADD_FAILURE() << "unexpected stop row";
      return Budget::Unlimited();
  }
}

}  // namespace stop_table

TEST(EngineExecution, EveryModeSurfacesEveryStopReason) {
  using stop_table::MakeStoppedBudget;
  const Structure a = TwoEdges();  // two components: factorization runs
  const Structure b = Triangle();

  const stop_table::StopRow stops[] = {
      {"steps", StopReason::kSteps},
      {"deadline", StopReason::kDeadline},
      {"memory", StopReason::kMemory},
      {"cancel", StopReason::kCancelled},
  };

  struct ConfigRow {
    const char* name;
    EngineConfig config;
  };
  std::vector<ConfigRow> configs;
  configs.push_back({"serial", EngineConfig{}});
  {
    EngineConfig parallel;
    parallel.num_threads = 2;
    configs.push_back({"parallel", parallel});
  }
  {
    EngineConfig cached;
    cached.use_cache = true;
    configs.push_back({"cached", cached});
  }

  for (const HomQueryMode mode :
       {HomQueryMode::kHas, HomQueryMode::kFind, HomQueryMode::kCount,
        HomQueryMode::kEnumerate, HomQueryMode::kProject}) {
    for (const auto& row : configs) {
      HomProblem problem = MakeProblem(a, b, mode);
      if (mode == HomQueryMode::kEnumerate ||
          mode == HomQueryMode::kProject) {
        problem.callback = [](const std::vector<int>&) { return true; };
        problem.free = {0, 2};
      }
      const PlanResult planned =
          PlanHomQuery(problem, row.config, PlanMode::kCompat);
      ASSERT_TRUE(planned.plan.has_value())
          << row.name << " mode " << static_cast<int>(mode);
      for (const auto& stop : stops) {
        SCOPED_TRACE(std::string(row.name) + "/" + stop.name + "/mode=" +
                     std::to_string(static_cast<int>(mode)));
        // An earlier cached row must not answer this one from the cache
        // (a hit legitimately completes without touching the budget).
        HomCache::Global().Clear();
        Budget budget = MakeStoppedBudget(stop.want);
        const auto out = Engine::Execute(*planned.plan, budget);
        EXPECT_FALSE(out.IsDone());
        EXPECT_EQ(out.Report().reason, stop.want);
        EXPECT_EQ(out.IsCancelled(), stop.want == StopReason::kCancelled);
        EXPECT_EQ(out.IsExhausted(), stop.want != StopReason::kCancelled);
      }
    }
  }

  // The budgeted core probes surface the same stop vocabulary.
  for (const auto& stop : stops) {
    SCOPED_TRACE(std::string("core/") + stop.name);
    Budget budget = MakeStoppedBudget(stop.want);
    const auto core = ComputeCoreBudgeted(b, budget);
    EXPECT_FALSE(core.IsDone());
    EXPECT_EQ(core.Report().reason, stop.want);

    Budget probe = MakeStoppedBudget(stop.want);
    const auto is_core = IsCoreBudgeted(b, probe);
    EXPECT_FALSE(is_core.IsDone());
    EXPECT_EQ(is_core.Report().reason, stop.want);
  }
}

TEST(EnginePlan, GreedyBoundFirstAtomOrderPrefersBoundSlots) {
  // All atoms start unbound: ties keep the original order.
  EXPECT_EQ(GreedyBoundFirstAtomOrder({{0, 1}, {1, 2}, {2, 3}}, 4),
            (std::vector<int>{0, 1, 2}));
  // After atom 0 binds {2, 3}, atom 2 shares a slot and jumps the queue.
  EXPECT_EQ(GreedyBoundFirstAtomOrder({{2, 3}, {0, 1}, {1, 2}}, 4),
            (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(GreedyBoundFirstAtomOrder({}, 0), (std::vector<int>{}));
  // An empty seed is the default order.
  EXPECT_EQ(GreedyBoundFirstAtomOrder({{2, 3}, {0, 1}, {1, 2}}, 4, {}),
            (std::vector<int>{0, 2, 1}));
}

TEST(EnginePlan, SeededAtomOrdersStartAtTheSeed) {
  const std::vector<std::vector<int>> chain = {{0, 1}, {1, 2}, {2, 3}};
  // A pinned first atom joins first; the greedy rule orders the rest
  // from the slots it bound (ties still keep the lowest index).
  AtomOrderSeed last;
  last.first_atom = 2;
  EXPECT_EQ(GreedyBoundFirstAtomOrder(chain, 4, last),
            (std::vector<int>{2, 1, 0}));
  AtomOrderSeed middle;
  middle.first_atom = 1;
  EXPECT_EQ(GreedyBoundFirstAtomOrder(chain, 4, middle),
            (std::vector<int>{1, 0, 2}));
  // Pre-bound slots count from the first step: slot 3 pulls atom 2
  // forward, and with slots 1 and 2 bound atom 1 (two bound) wins.
  AtomOrderSeed tail_bound;
  tail_bound.bound_slots = {3};
  EXPECT_EQ(GreedyBoundFirstAtomOrder(chain, 4, tail_bound),
            (std::vector<int>{2, 1, 0}));
  AtomOrderSeed inner_bound;
  inner_bound.bound_slots = {1, 2};
  EXPECT_EQ(GreedyBoundFirstAtomOrder(chain, 4, inner_bound),
            (std::vector<int>{1, 0, 2}));
}

// A 0-ary tuple constrains no element, so the kernels never see it; the
// engine must still refuse every map from a source holding it into a
// target lacking it, in every query mode.
TEST(EngineNullary, MissingNullaryTupleRulesOutEveryMap) {
  Vocabulary voc;
  voc.AddRelation("Z", 0);
  voc.AddRelation("E", 2);
  Structure source(voc, 1);
  source.AddTuple(0, {});
  Structure target(voc, 2);
  target.AddTuple(1, {0, 1});
  Budget budget = Budget::Unlimited();
  EXPECT_FALSE(Engine::Has(source, target, budget).Value());
  EXPECT_FALSE(Engine::Find(source, target, budget).Value().has_value());
  EXPECT_EQ(Engine::Count(source, target, budget, 0).Value(), 0u);
  int maps = 0;
  EXPECT_TRUE(Engine::Enumerate(source, target, budget,
                                [&](const std::vector<int>&) {
                                  ++maps;
                                  return true;
                                })
                  .Value());
  EXPECT_EQ(maps, 0);
  const auto count_answers = [&] {
    int answers = 0;
    Engine::Project(source, target, budget, {0},
                    [&](const std::vector<int>&) {
                      ++answers;
                      return true;
                    });
    return answers;
  };
  EXPECT_EQ(count_answers(), 0);
  // With the tuple present in the target, both elements are images.
  target.AddTuple(0, {});
  EXPECT_TRUE(Engine::Has(source, target, budget).Value());
  EXPECT_EQ(Engine::Count(source, target, budget, 0).Value(), 2u);
  EXPECT_EQ(count_answers(), 2);
  // The empty source (universe 0) too.
  Structure bare(voc, 0);
  bare.AddTuple(0, {});
  EXPECT_FALSE(Engine::Has(bare, Structure(voc, 0), budget).Value());
  EXPECT_TRUE(Engine::Has(bare, target, budget).Value());
}

}  // namespace
}  // namespace hompres
