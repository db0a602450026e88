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

KernelOptions ToKernelOptions(const HomPlan& plan) {
  const EngineConfig& config = plan.config;
  KernelOptions options;
  options.mode = plan.problem.mode;
  options.limit = plan.problem.limit;
  options.free = plan.problem.free;
  options.surjective = config.surjective;
  options.forced = config.forced;
  options.use_arc_consistency = config.use_arc_consistency;
  options.use_index = config.use_index;
  return options;
}

// The parallel subtree driver keeps its legacy HomOptions surface (it is
// an execution backend, not a planner); this converter is the only place
// an EngineConfig turns back into one.
HomOptions ToHomOptions(const EngineConfig& config) {
  HomOptions options;
  options.surjective = config.surjective;
  options.forced = config.forced;
  options.use_arc_consistency = config.use_arc_consistency;
  options.use_index = config.use_index;
  options.num_threads = config.num_threads;
  options.deterministic_witness = config.deterministic_witness;
  options.factorize = config.factorize;
  options.use_cache = config.use_cache;
  return options;
}

// Re-plans the cache-miss path: same problem, cache disabled. The config
// was already normalized by the original planning call, so strict
// re-planning cannot fail.
HomPlan ReplanUncached(const HomPlan& plan) {
  EngineConfig uncached = plan.config;
  uncached.use_cache = false;
  PlanResult replanned =
      PlanHomQuery(plan.problem, uncached, PlanMode::kStrict);
  HOMPRES_CHECK(replanned.plan.has_value());
  return *std::move(replanned.plan);
}

// Plans a sub-query (component / miss path) whose config is known valid.
HomPlan PlanSubQuery(const HomProblem& problem, const EngineConfig& config) {
  PlanResult planned = PlanHomQuery(problem, config, PlanMode::kStrict);
  HOMPRES_CHECK(planned.plan.has_value());
  return *std::move(planned.plan);
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

Outcome<std::optional<std::vector<int>>> FindDispatch(const HomPlan& plan,
                                                      Budget& budget);
Outcome<uint64_t> CountDispatch(const HomPlan& plan, Budget& budget);

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
// DegradationEvent on `root`; sub-query plans (per-component, spawned by
// the factorized drivers) inherit the degraded config and are not
// re-probed. Ladder order: index -> scan, parallel -> serial,
// factorized -> monolithic, AC bitset -> naive backtracking. (The cache
// rungs — unreadable shard treated as an evicted miss, failed insert
// skipped — live with the cache consult in ExecuteHas/ExecuteCount.)
HomPlan DegradeForDispatch(HomPlan plan, const HomPlan& root,
                           ExecutionTrace* trace) {
  // Index -> scan: a target whose index cannot be built (allocation
  // failure or "relation_index/build") is scanned directly. TryIndex
  // returns the cached index without consulting the failpoint, so a
  // successful probe here is never re-failed inside the kernels.
  if (plan.use_index && plan.problem.target->TryIndex() == nullptr) {
    plan.use_index = false;
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
  // search the whole source at once.
  if (plan.components.size() >= 2 && HOMPRES_FAILPOINT("engine/factorize")) {
    plan.components.clear();
    plan.config.factorize = false;
    if (plan.strategy == ExecStrategy::kFactorized) {
      plan.strategy = plan.config.num_threads > 0
                          ? ExecStrategy::kParallelSplit
                          : ExecStrategy::kSerial;
    }
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
    plan.use_index = false;
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
Outcome<std::optional<std::vector<int>>> FindFactorized(
    const HomPlan& plan, Budget& budget) {
  using Result = Outcome<std::optional<std::vector<int>>>;
  const Structure& a = *plan.problem.source;
  const Structure& b = *plan.problem.target;
  EngineConfig sub_config = plan.config;
  sub_config.factorize = false;  // components are connected: don't re-split
  std::vector<int> h(static_cast<size_t>(a.UniverseSize()), -1);
  for (const std::vector<int>& elements : plan.components) {
    const Structure sub = a.InducedSubstructure(elements);
    HomProblem sub_problem;
    sub_problem.source = &sub;
    sub_problem.target = &b;
    sub_problem.mode = HomQueryMode::kFind;
    auto found =
        FindDispatch(PlanSubQuery(sub_problem, sub_config), budget);
    if (!found.IsDone()) return Result::StoppedShort(found.Report());
    if (!found.Value().has_value()) {
      // One component with no homomorphism is a certain global "no".
      return Result::Done(std::nullopt, budget.Report());
    }
    const std::vector<int>& sub_h = *found.Value();
    for (size_t i = 0; i < elements.size(); ++i) {
      h[static_cast<size_t>(elements[i])] = sub_h[i];
    }
  }
  HOMPRES_CHECK(VerifyHomomorphism(a, b, h));
  return Result::Done(std::move(h), budget.Report());
}

Outcome<uint64_t> CountFactorized(const HomPlan& plan, Budget& budget) {
  const Structure& a = *plan.problem.source;
  const Structure& b = *plan.problem.target;
  const uint64_t limit = plan.problem.limit;
  EngineConfig sub_config = plan.config;
  sub_config.factorize = false;
  uint64_t product = 1;
  bool saturated = false;  // the running product has reached `limit`
  for (const std::vector<int>& elements : plan.components) {
    const Structure sub = a.InducedSubstructure(elements);
    // Once the product has reached the limit, later components only
    // matter through "zero or not": count them with limit 1. Clamping
    // the per-component counts at `limit` keeps each sub-enumeration
    // bounded without changing min(total, limit): if some component
    // count was clamped, the true total is already >= limit.
    HomProblem sub_problem;
    sub_problem.source = &sub;
    sub_problem.target = &b;
    sub_problem.mode = HomQueryMode::kCount;
    sub_problem.limit = saturated ? 1 : limit;
    auto counted =
        CountDispatch(PlanSubQuery(sub_problem, sub_config), budget);
    if (!counted.IsDone()) {
      return Outcome<uint64_t>::StoppedShort(counted.Report());
    }
    if (counted.Value() == 0) {
      return Outcome<uint64_t>::Done(0, budget.Report());
    }
    if (!saturated) {
      product = SatMul(product, counted.Value());
      if (limit != 0 && product >= limit) {
        product = limit;
        saturated = true;
      }
    }
  }
  return Outcome<uint64_t>::Done(product, budget.Report());
}

// Find/has dispatch below the cache: factorized -> parallel -> serial.
// Dispatch keys on the normalized config (not the strategy label) so
// execution matches the legacy engine bit for bit: the parallel driver
// owns its own serial fallback for splits that turn out trivial.
Outcome<std::optional<std::vector<int>>> FindDispatch(const HomPlan& plan,
                                                      Budget& budget) {
  using Result = Outcome<std::optional<std::vector<int>>>;
  const Structure& a = *plan.problem.source;
  const Structure& b = *plan.problem.target;
  if (!NullaryTuplesPreserved(a, b)) {
    return Result::Done(std::nullopt, budget.Report());
  }
  if (plan.components.size() >= 2) return FindFactorized(plan, budget);
  if (plan.config.num_threads > 0) {
    return ParallelFindHomomorphismBudgeted(a, b, budget,
                                            ToHomOptions(plan.config));
  }
  std::optional<std::vector<int>> result;
  RunSerialHomKernel(a, b, ToKernelOptions(plan), budget,
                     [&](const std::vector<int>& h) {
                       result = h;
                       return false;  // stop at the first witness
                     });
  if (result.has_value()) {
    HOMPRES_CHECK(VerifyHomomorphism(a, b, *result));
    // A witness is a witness even if the budget ran out as it was found.
    return Result::Done(std::move(result), budget.Report());
  }
  return Result::Finish(budget, std::nullopt);
}

Outcome<uint64_t> CountDispatch(const HomPlan& plan, Budget& budget) {
  const Structure& a = *plan.problem.source;
  const Structure& b = *plan.problem.target;
  const uint64_t limit = plan.problem.limit;
  if (!NullaryTuplesPreserved(a, b)) {
    return Outcome<uint64_t>::Done(0, budget.Report());
  }
  if (plan.components.size() >= 2) return CountFactorized(plan, budget);
  if (plan.config.num_threads > 0) {
    return ParallelCountHomomorphismsBudgeted(a, b, budget, limit,
                                              ToHomOptions(plan.config));
  }
  const uint64_t count =
      RunSerialHomKernel(a, b, ToKernelOptions(plan), budget);
  // Reaching the limit completes the query; only a budget stop without
  // the limit leaves the count uncertain.
  if (limit != 0 && count >= limit) {
    return Outcome<uint64_t>::Done(count, budget.Report());
  }
  return Outcome<uint64_t>::Finish(budget, count);
}

// Cached -> uncached rung, shared by ExecuteHas/ExecuteCount: a failed
// lookup means the shard cannot be trusted; evict it wholesale and
// proceed as a miss (the insert below repopulates the now-empty shard).
void DegradeFailedLookup(const HomPlan& plan, ExecutionTrace* trace) {
  HomCache::Global().EvictShardFor(plan.source_fingerprint,
                                   plan.target_fingerprint);
  RecordDegradation(plan, trace, DegradationKind::kCacheLookupToMiss,
                    "hom_cache/lookup",
                    "shard unreadable; evicted and treated as a miss");
}

Outcome<HomResult> ExecuteHas(const HomPlan& plan, Budget& budget,
                              ExecutionTrace* trace) {
  if (plan.consult_cache) {
    if (trace != nullptr) trace->cache_consulted = true;
    bool lookup_failed = false;
    if (auto hit = HomCache::Global().Lookup(
            plan.source_fingerprint, plan.target_fingerprint,
            plan.options_digest, HomCache::Kind::kHas, &lookup_failed)) {
      if (trace != nullptr) trace->cache_hit = true;
      HomResult result;
      result.has = (*hit != 0);
      return Outcome<HomResult>::Done(std::move(result), budget.Report());
    }
    if (lookup_failed) DegradeFailedLookup(plan, trace);
    auto found = FindDispatch(
        DegradeForDispatch(ReplanUncached(plan), plan, trace), budget);
    if (!found.IsDone()) {
      return Outcome<HomResult>::StoppedShort(found.Report());
    }
    const bool has = found.Value().has_value();
    // Only completed answers are cached; an exhausted search proves
    // nothing about the pair.
    const bool stored = HomCache::Global().Insert(
        plan.source_fingerprint, plan.target_fingerprint, plan.options_digest,
        HomCache::Kind::kHas, has ? 1 : 0);
    if (stored) {
      if (trace != nullptr) trace->cache_stored = true;
    } else {
      RecordDegradation(plan, trace, DegradationKind::kCacheInsertSkipped,
                        "hom_cache/shard_insert",
                        "completed answer not memoized");
    }
    HomResult result;
    result.has = has;
    return Outcome<HomResult>::Done(std::move(result), found.Report());
  }
  auto found = FindDispatch(DegradeForDispatch(plan, plan, trace), budget);
  if (!found.IsDone()) return Outcome<HomResult>::StoppedShort(found.Report());
  HomResult result;
  result.has = found.Value().has_value();
  return Outcome<HomResult>::Done(std::move(result), found.Report());
}

Outcome<HomResult> ExecuteFind(const HomPlan& plan, Budget& budget,
                               ExecutionTrace* trace) {
  auto found = FindDispatch(DegradeForDispatch(plan, plan, trace), budget);
  if (!found.IsDone()) return Outcome<HomResult>::StoppedShort(found.Report());
  const BudgetReport report = found.Report();
  HomResult result;
  result.witness = std::move(found).TakeValue();
  result.has = result.witness.has_value();
  return Outcome<HomResult>::Done(std::move(result), report);
}

Outcome<HomResult> ExecuteCount(const HomPlan& plan, Budget& budget,
                                ExecutionTrace* trace) {
  if (plan.consult_cache) {
    if (trace != nullptr) trace->cache_consulted = true;
    bool lookup_failed = false;
    if (auto hit = HomCache::Global().Lookup(
            plan.source_fingerprint, plan.target_fingerprint,
            plan.options_digest, HomCache::Kind::kCount, &lookup_failed)) {
      if (trace != nullptr) trace->cache_hit = true;
      HomResult result;
      result.count = *hit;
      return Outcome<HomResult>::Done(std::move(result), budget.Report());
    }
    if (lookup_failed) DegradeFailedLookup(plan, trace);
    auto counted = CountDispatch(
        DegradeForDispatch(ReplanUncached(plan), plan, trace), budget);
    if (!counted.IsDone()) {
      return Outcome<HomResult>::StoppedShort(counted.Report());
    }
    const bool stored = HomCache::Global().Insert(
        plan.source_fingerprint, plan.target_fingerprint, plan.options_digest,
        HomCache::Kind::kCount, counted.Value());
    if (stored) {
      if (trace != nullptr) trace->cache_stored = true;
    } else {
      RecordDegradation(plan, trace, DegradationKind::kCacheInsertSkipped,
                        "hom_cache/shard_insert",
                        "completed answer not memoized");
    }
    HomResult result;
    result.count = counted.Value();
    return Outcome<HomResult>::Done(std::move(result), counted.Report());
  }
  auto counted = CountDispatch(DegradeForDispatch(plan, plan, trace), budget);
  if (!counted.IsDone()) {
    return Outcome<HomResult>::StoppedShort(counted.Report());
  }
  HomResult result;
  result.count = counted.Value();
  return Outcome<HomResult>::Done(std::move(result), counted.Report());
}

// Enumerate and project: the kernel streams full maps or answer tuples
// into the caller's callback.
Outcome<HomResult> ExecuteStream(const HomPlan& root, Budget& budget,
                                 ExecutionTrace* trace) {
  const HomPlan plan = DegradeForDispatch(root, root, trace);
  const Structure& a = *plan.problem.source;
  const Structure& b = *plan.problem.target;
  bool callback_stopped = false;
  if (!NullaryTuplesPreserved(a, b)) {
    HomResult none;
    none.enumeration_completed = true;
    return Outcome<HomResult>::Done(std::move(none), budget.Report());
  }
  RunSerialHomKernel(a, b, ToKernelOptions(plan), budget,
                     [&](const std::vector<int>& h) {
                       if (!plan.problem.callback(h)) {
                         callback_stopped = true;
                         return false;
                       }
                       return true;
                     });
  if (callback_stopped) {
    HomResult result;
    result.enumeration_completed = false;
    return Outcome<HomResult>::Done(std::move(result), budget.Report());
  }
  if (budget.Stopped()) {
    return Outcome<HomResult>::StoppedShort(budget.Report());
  }
  HomResult result;
  result.enumeration_completed = true;
  return Outcome<HomResult>::Done(std::move(result), budget.Report());
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
  Outcome<HomResult> out = [&] {
    switch (plan.problem.mode) {
      case HomQueryMode::kHas:
        return ExecuteHas(plan, budget, trace);
      case HomQueryMode::kFind:
        return ExecuteFind(plan, budget, trace);
      case HomQueryMode::kCount:
        return ExecuteCount(plan, budget, trace);
      case HomQueryMode::kEnumerate:
      case HomQueryMode::kProject:
        return ExecuteStream(plan, budget, trace);
    }
    HOMPRES_CHECK(false);
    return Outcome<HomResult>::StoppedShort(BudgetReport{});
  }();
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
