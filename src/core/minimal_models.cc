#include "core/minimal_models.h"

#include <algorithm>
#include <utility>

#include "base/check.h"
#include "base/parallel_driver.h"
#include "base/subsets.h"
#include "base/thread_pool.h"
#include "core/structure_space.h"
#include "cq/cq.h"
#include "engine/engine.h"
#include "structure/isomorphism.h"

namespace hompres {

Outcome<bool> IsMinimalModelBudgeted(const BooleanQuery& q, const Structure& a,
                                     const StructureClass& c,
                                     Budget& budget) {
  if (!budget.Checkpoint()) return Outcome<bool>::StoppedShort(budget.Report());
  if (!c.contains(a) || !q(a)) return Outcome<bool>::Done(false,
                                                          budget.Report());
  // Maximal proper substructures: drop one tuple...
  for (int rel = 0; rel < a.GetVocabulary().NumRelations(); ++rel) {
    for (int i = 0; i < static_cast<int>(a.Tuples(rel).size()); ++i) {
      if (!budget.Checkpoint()) {
        return Outcome<bool>::StoppedShort(budget.Report());
      }
      const Structure reduced = a.RemoveTuple(rel, i);
      if (c.contains(reduced) && q(reduced)) {
        return Outcome<bool>::Done(false, budget.Report());
      }
    }
  }
  // ... or one isolated element (removing a non-isolated element is
  // subsumed by removing one of its tuples first).
  for (int e : a.IsolatedElements()) {
    if (!budget.Checkpoint()) {
      return Outcome<bool>::StoppedShort(budget.Report());
    }
    const Structure reduced = a.RemoveElement(e);
    if (c.contains(reduced) && q(reduced)) {
      return Outcome<bool>::Done(false, budget.Report());
    }
  }
  return Outcome<bool>::Done(true, budget.Report());
}

bool IsMinimalModel(const BooleanQuery& q, const Structure& a,
                    const StructureClass& c) {
  Budget unlimited = Budget::Unlimited();
  return IsMinimalModelBudgeted(q, a, c, unlimited).Value();
}

namespace {

// Parallel body of MinimalModelsOfUcqBudgeted: candidate quotients are
// collected in the serial enumeration order (one budget step each, as in
// the serial path), their minimality checks fan out, and the surviving
// candidates are merged back in order — so the model list matches the
// serial result exactly.
Outcome<std::vector<Structure>> MinimalModelsOfUcqParallel(
    const UnionOfCq& q, const StructureClass& c, Budget& budget,
    int num_threads) {
  const BooleanQuery query = [&q](const Structure& s) {
    return q.SatisfiedBy(s);
  };
  std::vector<Structure> candidates;
  for (const ConjunctiveQuery& disjunct : q.Disjuncts()) {
    const Structure& canonical = disjunct.Canonical();
    ForEachSetPartition(canonical.UniverseSize(),
                        [&](const std::vector<int>& block) {
                          if (!budget.Checkpoint()) return false;
                          int blocks = 0;
                          for (int b : block) blocks = std::max(blocks, b + 1);
                          Structure image = canonical.Image(block, blocks);
                          if (c.contains(image)) {
                            candidates.push_back(std::move(image));
                          }
                          return true;
                        });
    if (budget.Stopped()) {
      return Outcome<std::vector<Structure>>::StoppedShort(budget.Report());
    }
  }
  if (candidates.empty()) {
    return Outcome<std::vector<Structure>>::Done({}, budget.Report());
  }

  const int num_tasks = static_cast<int>(candidates.size());
  struct TaskState {
    bool completed = false;
    bool minimal = false;
    StopReason stop = StopReason::kNone;
  };
  std::vector<TaskState> states(static_cast<size_t>(num_tasks));

  ParallelRegion region(budget, num_tasks);
  ThreadPool pool(std::min(num_threads, num_tasks));
  for (int i = 0; i < num_tasks; ++i) {
    pool.Submit([&, i] {
      Budget worker = region.WorkerBudget(i);
      auto minimal = IsMinimalModelBudgeted(
          query, candidates[static_cast<size_t>(i)], c, worker);
      // Task-exclusive state; TaskDone/Join publish it to the joiner.
      TaskState& state = states[static_cast<size_t>(i)];
      if (minimal.IsDone()) {
        state.completed = true;
        state.minimal = minimal.Value();
      } else {
        state.stop = minimal.Report().reason;
      }
      region.TaskDone();
    });
  }
  const bool external_cancel = region.Join(pool);

  WorkerStopScan scan;
  for (const TaskState& state : states) {
    scan.Observe(state.completed, state.stop);
  }
  if (scan.AnyIncomplete()) {
    return Outcome<std::vector<Structure>>::StoppedShort(
        scan.StoppedReport(budget, external_cancel));
  }
  std::vector<Structure> models;
  for (int i = 0; i < num_tasks; ++i) {
    if (!states[static_cast<size_t>(i)].minimal) continue;
    Structure& image = candidates[static_cast<size_t>(i)];
    bool duplicate = false;
    for (const Structure& seen : models) {
      if (AreIsomorphic(seen, image)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) models.push_back(std::move(image));
  }
  return Outcome<std::vector<Structure>>::Done(std::move(models),
                                               budget.Report());
}

}  // namespace

Outcome<std::vector<Structure>> MinimalModelsOfUcqBudgeted(
    const UnionOfCq& q, const StructureClass& c, Budget& budget,
    int num_threads) {
  HOMPRES_CHECK_EQ(q.Arity(), 0);
  if (num_threads > 0) {
    return MinimalModelsOfUcqParallel(q, c, budget, num_threads);
  }
  const BooleanQuery query = [&q](const Structure& s) {
    return q.SatisfiedBy(s);
  };
  std::vector<Structure> models;
  for (const ConjunctiveQuery& disjunct : q.Disjuncts()) {
    const Structure& canonical = disjunct.Canonical();
    ForEachSetPartition(canonical.UniverseSize(), [&](const std::vector<
                                                      int>& block) {
      if (!budget.Checkpoint()) return false;
      int blocks = 0;
      for (int b : block) blocks = std::max(blocks, b + 1);
      const Structure image = canonical.Image(block, blocks);
      if (!c.contains(image)) return true;
      auto minimal = IsMinimalModelBudgeted(query, image, c, budget);
      if (!minimal.IsDone()) return false;
      if (!minimal.Value()) return true;
      for (const Structure& seen : models) {
        if (AreIsomorphic(seen, image)) return true;
      }
      models.push_back(image);
      return true;
    });
    if (budget.Stopped()) {
      return Outcome<std::vector<Structure>>::StoppedShort(budget.Report());
    }
  }
  return Outcome<std::vector<Structure>>::Done(std::move(models),
                                               budget.Report());
}

std::vector<Structure> MinimalModelsOfUcq(const UnionOfCq& q,
                                          const StructureClass& c,
                                          int num_threads) {
  Budget unlimited = Budget::Unlimited();
  return std::move(MinimalModelsOfUcqBudgeted(q, c, unlimited, num_threads))
      .TakeValue();
}

UnionOfCq UcqFromMinimalModels(const std::vector<Structure>& models) {
  std::vector<ConjunctiveQuery> disjuncts;
  disjuncts.reserve(models.size());
  for (const Structure& model : models) {
    disjuncts.push_back(ConjunctiveQuery::BooleanQueryOf(model));
  }
  return UnionOfCq(std::move(disjuncts), 0);
}

Outcome<bool> ForEachStructureInClassBudgeted(
    const Vocabulary& vocabulary, int max_universe, const StructureClass& c,
    Budget& budget, const std::function<bool(const Structure&)>& fn) {
  StructureSpace space(vocabulary, c);
  return space.ForEachInClass(max_universe, budget, [&](int n, uint64_t mask) {
    return fn(space.At(n, mask));
  });
}

bool ForEachStructureInClass(const Vocabulary& vocabulary, int max_universe,
                             const StructureClass& c,
                             const std::function<bool(const Structure&)>& fn) {
  Budget unlimited = Budget::Unlimited();
  return ForEachStructureInClassBudgeted(vocabulary, max_universe, c,
                                         unlimited, fn)
      .Value();
}

Outcome<std::vector<Structure>> MinimalModelsBySearchBudgeted(
    StructureSpace& space, int max_universe, Budget& budget,
    std::vector<Structure>* partial) {
  std::vector<Structure> models;
  if (partial != nullptr) partial->clear();
  auto scan = space.ForEachInClass(
      max_universe, budget, [&](int n, uint64_t mask) {
        if (!space.Satisfies(n, mask)) return true;
        auto minimal = space.IsMinimal(n, mask, budget);
        if (!minimal.IsDone()) return false;
        // One model per isomorphism class: the canonical mask is the
        // first member of its orbit the scan visits, and minimality is
        // the same at every member.
        if (!minimal.Value() || !space.IsCanonical(n, mask)) return true;
        const Structure& a = space.At(n, mask);
        models.push_back(a);
        if (partial != nullptr) partial->push_back(a);
        return true;
      });
  if (!scan.IsDone()) {
    return Outcome<std::vector<Structure>>::StoppedShort(budget.Report());
  }
  return Outcome<std::vector<Structure>>::Done(std::move(models),
                                               budget.Report());
}

Outcome<std::vector<Structure>> MinimalModelsBySearchBudgeted(
    const BooleanQuery& q, const Vocabulary& vocabulary,
    const StructureClass& c, int max_universe, Budget& budget,
    std::vector<Structure>* partial) {
  StructureSpace space(vocabulary, c, q);
  return MinimalModelsBySearchBudgeted(space, max_universe, budget, partial);
}

std::vector<Structure> MinimalModelsBySearch(const BooleanQuery& q,
                                             const Vocabulary& vocabulary,
                                             const StructureClass& c,
                                             int max_universe) {
  Budget unlimited = Budget::Unlimited();
  return std::move(MinimalModelsBySearchBudgeted(q, vocabulary, c,
                                                 max_universe, unlimited))
      .TakeValue();
}

bool CheckPreservedUnderHomomorphisms(const BooleanQuery& q,
                                      const std::vector<Structure>& samples) {
  std::vector<bool> value;
  value.reserve(samples.size());
  for (const Structure& s : samples) value.push_back(q(s));
  for (size_t i = 0; i < samples.size(); ++i) {
    if (!value[i]) continue;
    for (size_t j = 0; j < samples.size(); ++j) {
      if (i == j || value[j]) continue;
      Budget unlimited = Budget::Unlimited();
      if (Engine::Has(samples[i], samples[j], unlimited).Value()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace hompres
