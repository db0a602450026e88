#include "hom/parallel.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "base/check.h"
#include "base/parallel_driver.h"
#include "base/saturating.h"
#include "base/thread_pool.h"
#include "engine/ordering.h"
#include "structure/relation_index.h"

namespace hompres {

namespace {

// Split assignments, one per task, in lexicographic order of the values
// assigned to the split elements (the order that defines the
// deterministic_witness winner).
using SplitPlan = std::vector<std::vector<std::pair<int, int>>>;

// Crosses the value ranges of the planner-chosen split elements
// (engine/ordering.h: the highest-occurrence source elements) into one
// forced-pair prefix per task. Returns an empty plan when splitting is
// pointless (trivial instance, or m < 2).
SplitPlan PlanSplit(const Structure& a, const Structure& b,
                    const HomOptions& options, int num_threads) {
  const SplitChoice choice =
      ChooseSplitElements(a, b, options.forced, num_threads);
  if (choice.elements.empty()) return {};
  const int m = b.UniverseSize();
  SplitPlan plan(1);
  for (int v : choice.elements) {
    SplitPlan next;
    next.reserve(plan.size() * static_cast<size_t>(m));
    for (const auto& prefix : plan) {
      for (int val = 0; val < m; ++val) {
        auto task = prefix;
        task.emplace_back(v, val);
        next.push_back(std::move(task));
      }
    }
    plan = std::move(next);
  }
  return plan;
}

bool ForcedPairsInRange(const Structure& a, const Structure& b,
                        const HomOptions& options) {
  for (const auto& [var, val] : options.forced) {
    if (var < 0 || var >= a.UniverseSize() || val < 0 ||
        val >= b.UniverseSize()) {
      return false;
    }
  }
  return true;
}

// Builds the indexes the subtree searches will share before the workers
// start, so the lazy build happens exactly once instead of the first
// tasks racing for the build lock.
void WarmIndexes(const Structure& a, const Structure& b,
                 const HomOptions& options) {
  if (!options.use_arc_consistency || !options.use_index) return;
  (void)a.Index();
  (void)b.Index();
}

}  // namespace

Outcome<std::optional<std::vector<int>>> ParallelFindHomomorphismBudgeted(
    const Structure& a, const Structure& b, Budget& budget,
    const HomOptions& options) {
  using Result = Outcome<std::optional<std::vector<int>>>;
  HOMPRES_CHECK(a.GetVocabulary() == b.GetVocabulary());
  HomOptions serial = options;
  serial.num_threads = 0;
  if (options.num_threads <= 0 || !ForcedPairsInRange(a, b, options)) {
    return FindHomomorphismBudgeted(a, b, budget, serial);
  }
  const SplitPlan plan = PlanSplit(a, b, options, options.num_threads);
  if (plan.size() < 2) {
    return FindHomomorphismBudgeted(a, b, budget, serial);
  }
  if (!budget.Checkpoint()) return Result::StoppedShort(budget.Report());
  WarmIndexes(a, b, serial);

  const int num_tasks = static_cast<int>(plan.size());
  struct TaskState {
    bool completed = false;
    std::optional<std::vector<int>> witness;
    StopReason stop = StopReason::kNone;
  };
  std::vector<TaskState> states(static_cast<size_t>(num_tasks));
  std::mutex state_mu;
  int best_witness = num_tasks;  // smallest task index with a witness

  ParallelRegion region(budget, num_tasks);
  ThreadPool pool(std::min(options.num_threads, num_tasks));
  for (int i = 0; i < num_tasks; ++i) {
    pool.Submit(region.GuardedTask([&, i] {
      Budget worker = region.WorkerBudget(i);
      HomOptions task_options = serial;
      task_options.forced.insert(task_options.forced.end(),
                                 plan[static_cast<size_t>(i)].begin(),
                                 plan[static_cast<size_t>(i)].end());
      auto out = FindHomomorphismBudgeted(a, b, worker, task_options);
      {
        std::lock_guard<std::mutex> lock(state_mu);
        TaskState& state = states[static_cast<size_t>(i)];
        if (out.IsDone()) {
          state.completed = true;
          state.witness = std::move(out).TakeValue();
          if (state.witness.has_value()) {
            if (!options.deterministic_witness) {
              // First finisher: no other subtree can change the decision.
              region.CancelAll();
            } else if (i < best_witness) {
              // Subtrees right of the best witness can no longer win;
              // those left of it may still produce an earlier one.
              best_witness = i;
              region.CancelFrom(best_witness + 1);
            }
          }
        } else {
          state.stop = out.Report().reason;
        }
      }
      region.TaskDone();
    }));
  }
  const bool external_cancel = region.Join(pool);

  for (TaskState& state : states) {
    if (state.witness.has_value()) {
      HOMPRES_CHECK(VerifyHomomorphism(a, b, *state.witness));
      return Result::Done(std::move(state.witness), budget.Report());
    }
  }
  WorkerStopScan scan;
  for (const TaskState& state : states) {
    scan.Observe(state.completed, state.stop);
  }
  if (!scan.AnyIncomplete()) {
    return Result::Done(std::nullopt, budget.Report());
  }
  return Result::StoppedShort(scan.StoppedReport(budget, external_cancel));
}

std::optional<std::vector<int>> ParallelFindHomomorphism(
    const Structure& a, const Structure& b, const HomOptions& options) {
  Budget unlimited = Budget::Unlimited();
  return ParallelFindHomomorphismBudgeted(a, b, unlimited, options).Value();
}

Outcome<bool> ParallelHasHomomorphismBudgeted(const Structure& a,
                                              const Structure& b,
                                              Budget& budget,
                                              const HomOptions& options) {
  auto found = ParallelFindHomomorphismBudgeted(a, b, budget, options);
  if (!found.IsDone()) return Outcome<bool>::StoppedShort(found.Report());
  return Outcome<bool>::Done(found.Value().has_value(), found.Report());
}

Outcome<uint64_t> ParallelCountHomomorphismsBudgeted(
    const Structure& a, const Structure& b, Budget& budget, uint64_t limit,
    const HomOptions& options) {
  using Result = Outcome<uint64_t>;
  HOMPRES_CHECK(a.GetVocabulary() == b.GetVocabulary());
  HomOptions serial = options;
  serial.num_threads = 0;
  if (options.num_threads <= 0 || !ForcedPairsInRange(a, b, options)) {
    return CountHomomorphismsBudgeted(a, b, budget, limit, serial);
  }
  const SplitPlan plan = PlanSplit(a, b, options, options.num_threads);
  if (plan.size() < 2) {
    return CountHomomorphismsBudgeted(a, b, budget, limit, serial);
  }
  if (!budget.Checkpoint()) return Result::StoppedShort(budget.Report());
  WarmIndexes(a, b, serial);

  const int num_tasks = static_cast<int>(plan.size());
  std::atomic<uint64_t> found{0};
  struct TaskState {
    bool completed = false;
    StopReason stop = StopReason::kNone;
  };
  std::vector<TaskState> states(static_cast<size_t>(num_tasks));

  ParallelRegion region(budget, num_tasks);
  ThreadPool pool(std::min(options.num_threads, num_tasks));
  for (int i = 0; i < num_tasks; ++i) {
    pool.Submit(region.GuardedTask([&, i] {
      Budget worker = region.WorkerBudget(i);
      HomOptions task_options = serial;
      task_options.forced.insert(task_options.forced.end(),
                                 plan[static_cast<size_t>(i)].begin(),
                                 plan[static_cast<size_t>(i)].end());
      // Each subtree count is clamped at `limit` on its own: a clamped
      // subtree already puts the total at or past the limit.
      auto out = CountHomomorphismsBudgeted(a, b, worker, limit, task_options);
      // The state is task-exclusive: TaskDone/Join publish it to the
      // joining thread.
      TaskState& state = states[static_cast<size_t>(i)];
      if (out.IsDone()) {
        state.completed = true;
        uint64_t total = found.load(std::memory_order_relaxed);
        while (!found.compare_exchange_weak(total,
                                            SatAdd(total, out.Value()),
                                            std::memory_order_relaxed)) {
        }
        if (limit != 0 && SatAdd(total, out.Value()) >= limit) {
          // The answer is `limit`; stop every subtree.
          region.CancelAll();
        }
      } else {
        state.stop = out.Report().reason;
      }
      region.TaskDone();
    }));
  }
  const bool external_cancel = region.Join(pool);

  const uint64_t total = found.load(std::memory_order_relaxed);
  if (limit != 0 && total >= limit) {
    return Result::Done(limit, budget.Report());
  }
  WorkerStopScan scan;
  for (const TaskState& state : states) {
    scan.Observe(state.completed, state.stop);
  }
  if (!scan.AnyIncomplete()) return Result::Done(total, budget.Report());
  return Result::StoppedShort(scan.StoppedReport(budget, external_cancel));
}

uint64_t ParallelCountHomomorphisms(const Structure& a, const Structure& b,
                                    uint64_t limit,
                                    const HomOptions& options) {
  Budget unlimited = Budget::Unlimited();
  return ParallelCountHomomorphismsBudgeted(a, b, unlimited, limit, options)
      .Value();
}

}  // namespace hompres
