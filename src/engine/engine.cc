#include "engine/engine.h"

#include <string>
#include <utility>

#include "base/check.h"
#include "base/failpoint.h"
#include "base/saturating.h"
#include "hom/hom_cache.h"
#include "hom/homomorphism.h"
#include "hom/kernel.h"
#include "hom/parallel.h"
#include "structure/relation_index.h"

namespace hompres {

namespace {

// Plans a sub-query (component, cache-miss path, degraded re-plan)
// whose config is known valid: it was normalized by the original
// planning call, so strict planning cannot fail.
HomPlan PlanSubQuery(const HomProblem& problem, const EngineConfig& config) {
  PlanResult planned = PlanHomQuery(problem, config, PlanMode::kStrict);
  HOMPRES_CHECK(planned.plan.has_value());
  return *std::move(planned.plan);
}

// Re-plans the cache-miss path: same problem, cache disabled.
HomPlan ReplanUncached(const HomPlan& plan) {
  EngineConfig uncached = plan.config;
  uncached.use_cache = false;
  return PlanSubQuery(plan.problem, uncached);
}

// Nullary tuples constrain no element, so no kernel sees them: a 0-ary
// tuple of the source that the target lacks rules out every map up
// front (no witness, count 0, nothing to enumerate).
bool NullaryTuplesPreserved(const Structure& a, const Structure& b) {
  const Vocabulary& vocabulary = a.GetVocabulary();
  for (int rel = 0; rel < vocabulary.NumRelations(); ++rel) {
    if (vocabulary.Arity(rel) == 0 && !a.Tuples(rel).empty() &&
        b.Tuples(rel).empty()) {
      return false;
    }
  }
  return true;
}

Outcome<HomResult> Dispatch(const HomPlan& plan, Budget& budget);

// ---------------------------------------------------------------------
// Degradation ladder (DESIGN.md §4.6). When a facility the plan relies
// on fails — for real, or through an armed failpoint — execution falls
// back one rung instead of failing the query, and the fallback is
// recorded on the root plan (surfaced by Explain/Summary and mirrored
// into the trace). Every rung preserves the answer.
// ---------------------------------------------------------------------

void RecordDegradation(const HomPlan& root, ExecutionTrace* trace,
                       DegradationKind kind, const char* site,
                       std::string detail) {
  DegradationEvent event{kind, site, std::move(detail)};
  if (trace != nullptr) trace->degradations.push_back(event);
  root.degradations.push_back(std::move(event));
}

// Applies the ladder to a dispatch-ready plan (the plan itself for
// uncached queries, the re-planned miss path for cached ones) and
// returns the plan actually dispatched. Probes happen once per
// top-level Execute, before dispatch, so a fired fault always leaves a
// DegradationEvent on `root`; per-component sub-query plans inherit the
// degraded config and the parallel driver's subtree tasks run the kernel
// on it, so neither re-probes. Ladder order: index -> scan, parallel ->
// serial, factorized -> monolithic, AC bitset -> naive backtracking.
// (The cache rungs — unreadable shard treated as an evicted miss, failed
// insert skipped — live with the cache consult in ExecuteCached.)
HomPlan DegradeForDispatch(HomPlan plan, const HomPlan& root,
                           ExecutionTrace* trace) {
  // Index -> scan: a target whose index cannot be built (allocation
  // failure or "relation_index/build") is scanned directly. TryIndex
  // returns the cached index without consulting the failpoint, so a
  // successful probe here is never re-failed inside the kernels.
  if (plan.config.use_index && plan.problem.target->TryIndex() == nullptr) {
    plan.config.use_index = false;
    RecordDegradation(root, trace, DegradationKind::kIndexToScan,
                      "relation_index/build",
                      "target index unavailable; kernels scan tuple lists");
  }
  // Parallel -> serial: a canary probe of the pool's spawn failpoint
  // stands in for "no worker threads available"; the query runs as one
  // serial search. (A partial spawn failure below this canary degrades
  // inside ThreadPool itself: fewer workers, same answers.)
  if (plan.config.num_threads > 0 && HOMPRES_FAILPOINT("thread_pool/spawn")) {
    plan.config.num_threads = 0;
    plan.strategy = plan.components.size() >= 2 ? ExecStrategy::kFactorized
                                                : ExecStrategy::kSerial;
    plan.split_elements.clear();
    plan.split_tasks = 1;
    RecordDegradation(root, trace, DegradationKind::kParallelToSerial,
                      "thread_pool/spawn",
                      "worker threads unavailable; serial search");
  }
  // Factorized -> monolithic: abandon the Gaifman-component split and
  // search the whole source at once. Re-planning without factorization
  // runs the split pass the component split had skipped.
  if (plan.components.size() >= 2 && HOMPRES_FAILPOINT("engine/factorize")) {
    EngineConfig monolithic = plan.config;
    monolithic.factorize = false;
    plan = PlanSubQuery(plan.problem, monolithic);
    RecordDegradation(root, trace, DegradationKind::kFactorizedToMonolithic,
                      "engine/factorize",
                      "component split abandoned; monolithic search");
  }
  // AC bitset -> naive backtracking: the packed-domain workspace cannot
  // be grown, so the plan falls back to the naive kernel (which also
  // never scans an index).
  if (plan.config.use_arc_consistency &&
      HOMPRES_FAILPOINT("hom/workspace_alloc")) {
    plan.config.use_arc_consistency = false;
    plan.config.use_index = false;
    plan.kernel = SerialKernel::kNaiveBacktracking;
    RecordDegradation(root, trace, DegradationKind::kAcToNaive,
                      "hom/workspace_alloc",
                      "AC workspace unavailable; naive backtracking");
  }
  return plan;
}

// Factorization rewrites hom(A, B) through the connected components of
// A's Gaifman graph: a homomorphism is exactly an independent choice of
// homomorphism per component, so existence is a conjunction and the
// count is a product. Planning only selects it when nothing couples the
// components (no surjectivity, no forced pairs).
Outcome<HomResult> RunFactorized(const HomPlan& plan, Budget& budget) {
  const Structure& a = *plan.problem.source;
  const Structure& b = *plan.problem.target;
  const bool count = plan.problem.mode == HomQueryMode::kCount;
  const uint64_t limit = plan.problem.limit;
  EngineConfig sub_config = plan.config;
  sub_config.factorize = false;  // components are connected: don't re-split
  std::vector<int> h(static_cast<size_t>(a.UniverseSize()), -1);
  uint64_t product = 1;
  bool saturated = false;  // the running product has reached `limit`
  for (const std::vector<int>& elements : plan.components) {
    const Structure sub = a.InducedSubstructure(elements);
    HomProblem sub_problem;
    sub_problem.source = &sub;
    sub_problem.target = &b;
    sub_problem.mode = count ? HomQueryMode::kCount : HomQueryMode::kFind;
    // Once the product has reached the limit, later components only
    // matter through "zero or not": count them with limit 1. Clamping
    // the per-component counts at `limit` keeps each sub-enumeration
    // bounded without changing min(total, limit): if some component
    // count was clamped, the true total is already >= limit.
    if (count) sub_problem.limit = saturated ? 1 : limit;
    auto part = Dispatch(PlanSubQuery(sub_problem, sub_config), budget);
    if (!part.IsDone()) return part;
    if (count ? part.Value().count == 0 : !part.Value().has) {
      // One component with no homomorphism is a certain global "no".
      return Outcome<HomResult>::Done(HomResult{}, budget.Report());
    }
    if (count) {
      if (!saturated) {
        product = SatMul(product, part.Value().count);
        if (limit != 0 && product >= limit) {
          product = limit;
          saturated = true;
        }
      }
    } else {
      const std::vector<int>& sub_h = *part.Value().witness;
      for (size_t i = 0; i < elements.size(); ++i) {
        h[static_cast<size_t>(elements[i])] = sub_h[i];
      }
    }
  }
  HomResult result;
  if (count) {
    result.count = product;
  } else {
    HOMPRES_CHECK(VerifyHomomorphism(a, b, h));
    result.has = true;
    if (plan.problem.mode == HomQueryMode::kFind) result.witness = std::move(h);
  }
  return Outcome<HomResult>::Done(std::move(result), budget.Report());
}

// One serial kernel run, for every mode.
Outcome<HomResult> RunSerial(const HomPlan& plan, Budget& budget) {
  const HomProblem& problem = plan.problem;
  HomResult result;
  switch (problem.mode) {
    case HomQueryMode::kHas:
    case HomQueryMode::kFind: {
      std::optional<std::vector<int>> witness;
      RunSerialHomKernel(problem, plan.config, budget,
                         [&](const std::vector<int>& h) {
                           witness = h;
                           return false;  // stop at the first witness
                         });
      if (witness.has_value()) {
        HOMPRES_CHECK(
            VerifyHomomorphism(*problem.source, *problem.target, *witness));
        result.has = true;
        if (problem.mode == HomQueryMode::kFind) {
          result.witness = std::move(witness);
        }
        // A witness is a witness even if the budget ran out as it was
        // found.
        return Outcome<HomResult>::Done(std::move(result), budget.Report());
      }
      break;
    }
    case HomQueryMode::kCount:
      result.count = RunSerialHomKernel(problem, plan.config, budget);
      // Reaching the limit completes the query; only a budget stop
      // without the limit leaves the count uncertain.
      if (problem.limit != 0 && result.count >= problem.limit) {
        return Outcome<HomResult>::Done(std::move(result), budget.Report());
      }
      break;
    case HomQueryMode::kEnumerate:
    case HomQueryMode::kProject: {
      // The kernel streams full maps or answer tuples into the caller's
      // callback.
      bool callback_stopped = false;
      RunSerialHomKernel(problem, plan.config, budget,
                         [&](const std::vector<int>& h) {
                           if (!problem.callback(h)) {
                             callback_stopped = true;
                             return false;
                           }
                           return true;
                         });
      if (callback_stopped) {
        return Outcome<HomResult>::Done(std::move(result), budget.Report());
      }
      result.enumeration_completed = true;
      break;
    }
  }
  return Outcome<HomResult>::Finish(budget, std::move(result));
}

// Dispatch below the cache, on the plan's strategy.
Outcome<HomResult> Dispatch(const HomPlan& plan, Budget& budget) {
  if (!NullaryTuplesPreserved(*plan.problem.source, *plan.problem.target)) {
    HomResult none;
    none.enumeration_completed = true;
    return Outcome<HomResult>::Done(std::move(none), budget.Report());
  }
  switch (plan.strategy) {
    case ExecStrategy::kFactorized:
      return RunFactorized(plan, budget);
    case ExecStrategy::kParallelSplit:
      return RunParallelSplit(plan, budget);
    case ExecStrategy::kSerial:
      break;
  }
  return RunSerial(plan, budget);
}

// Cached -> uncached rung: a failed lookup means the shard cannot be
// trusted; evict it wholesale and proceed as a miss (the insert below
// repopulates the now-empty shard).
void DegradeFailedLookup(const HomPlan& plan, ExecutionTrace* trace) {
  HomCache::Global().EvictShardFor(plan.source_fingerprint,
                                   plan.target_fingerprint);
  RecordDegradation(plan, trace, DegradationKind::kCacheLookupToMiss,
                    "hom_cache/lookup",
                    "shard unreadable; evicted and treated as a miss");
}

// A has or count query that consults the HomCache: answer a hit from the
// cache, dispatch a miss on the re-planned uncached path and memoize its
// completed answer.
Outcome<HomResult> ExecuteCached(const HomPlan& plan, Budget& budget,
                                 ExecutionTrace* trace) {
  const bool has = plan.problem.mode == HomQueryMode::kHas;
  const HomCache::Kind kind =
      has ? HomCache::Kind::kHas : HomCache::Kind::kCount;
  if (trace != nullptr) trace->cache_consulted = true;
  bool lookup_failed = false;
  if (auto hit = HomCache::Global().Lookup(
          plan.source_fingerprint, plan.target_fingerprint,
          plan.options_digest, kind, &lookup_failed)) {
    if (trace != nullptr) trace->cache_hit = true;
    HomResult result;
    if (has) {
      result.has = (*hit != 0);
    } else {
      result.count = *hit;
    }
    return Outcome<HomResult>::Done(std::move(result), budget.Report());
  }
  if (lookup_failed) DegradeFailedLookup(plan, trace);
  auto out = Dispatch(DegradeForDispatch(ReplanUncached(plan), plan, trace),
                      budget);
  // Only completed answers are cached; an exhausted search proves
  // nothing about the pair.
  if (!out.IsDone()) return out;
  const uint64_t value = has ? (out.Value().has ? 1 : 0) : out.Value().count;
  if (HomCache::Global().Insert(plan.source_fingerprint,
                                plan.target_fingerprint, plan.options_digest,
                                kind, value)) {
    if (trace != nullptr) trace->cache_stored = true;
  } else {
    RecordDegradation(plan, trace, DegradationKind::kCacheInsertSkipped,
                      "hom_cache/shard_insert",
                      "completed answer not memoized");
  }
  return out;
}

}  // namespace

std::string ExecutionTrace::ToString() const {
  std::string s = "trace: cache=";
  if (!cache_consulted) {
    s += "off";
  } else if (cache_hit) {
    s += "hit";
  } else if (cache_stored) {
    s += "miss+stored";
  } else {
    s += "miss";
  }
  s += " steps=" + std::to_string(steps_charged);
  if (!degradations.empty()) {
    s += " degraded=";
    for (size_t i = 0; i < degradations.size(); ++i) {
      if (i > 0) s += "+";
      s += DegradationKindName(degradations[i].kind);
    }
  }
  return s;
}

Outcome<HomResult> Engine::Execute(const HomPlan& plan, Budget& budget,
                                   ExecutionTrace* trace) {
  const uint64_t steps_before = budget.Report().steps_used;
  // The plan's degradation log describes one execution; start fresh.
  plan.degradations.clear();
  Outcome<HomResult> out =
      plan.consult_cache
          ? ExecuteCached(plan, budget, trace)
          : Dispatch(DegradeForDispatch(plan, plan, trace), budget);
  if (trace != nullptr) {
    trace->steps_charged = budget.Report().steps_used - steps_before;
  }
  return out;
}

Outcome<bool> Engine::Has(const Structure& a, const Structure& b,
                          Budget& budget, const EngineConfig& config) {
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = HomQueryMode::kHas;
  auto out = Execute(PlanSubQuery(problem, config), budget);
  if (!out.IsDone()) return Outcome<bool>::StoppedShort(out.Report());
  return Outcome<bool>::Done(out.Value().has, out.Report());
}

Outcome<std::optional<std::vector<int>>> Engine::Find(
    const Structure& a, const Structure& b, Budget& budget,
    const EngineConfig& config) {
  using Result = Outcome<std::optional<std::vector<int>>>;
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = HomQueryMode::kFind;
  auto out = Execute(PlanSubQuery(problem, config), budget);
  if (!out.IsDone()) return Result::StoppedShort(out.Report());
  const BudgetReport report = out.Report();
  return Result::Done(std::move(out).TakeValue().witness, report);
}

Outcome<uint64_t> Engine::Count(const Structure& a, const Structure& b,
                                Budget& budget, uint64_t limit,
                                const EngineConfig& config) {
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = HomQueryMode::kCount;
  problem.limit = limit;
  auto out = Execute(PlanSubQuery(problem, config), budget);
  if (!out.IsDone()) return Outcome<uint64_t>::StoppedShort(out.Report());
  return Outcome<uint64_t>::Done(out.Value().count, out.Report());
}

Outcome<bool> Engine::Enumerate(
    const Structure& a, const Structure& b, Budget& budget,
    const std::function<bool(const std::vector<int>&)>& callback,
    const EngineConfig& config) {
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = HomQueryMode::kEnumerate;
  problem.callback = callback;
  auto out = Execute(PlanSubQuery(problem, config), budget);
  if (!out.IsDone()) return Outcome<bool>::StoppedShort(out.Report());
  return Outcome<bool>::Done(out.Value().enumeration_completed, out.Report());
}

Outcome<bool> Engine::Project(
    const Structure& a, const Structure& b, Budget& budget,
    const std::vector<int>& free,
    const std::function<bool(const std::vector<int>&)>& callback,
    const EngineConfig& config) {
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = HomQueryMode::kProject;
  problem.callback = callback;
  problem.free = free;
  auto out = Execute(PlanSubQuery(problem, config), budget);
  if (!out.IsDone()) return Outcome<bool>::StoppedShort(out.Report());
  return Outcome<bool>::Done(out.Value().enumeration_completed, out.Report());
}

}  // namespace hompres
