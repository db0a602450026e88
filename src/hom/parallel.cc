#include "hom/parallel.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/parallel_driver.h"
#include "base/saturating.h"
#include "base/thread_pool.h"
#include "hom/homomorphism.h"
#include "hom/kernel.h"
#include "structure/relation_index.h"

namespace hompres {

namespace {

// Appends task `index`'s split assignment to `forced`. The values of the
// split elements are the base-m digits of `index`, most significant
// first, so task order is the lexicographic order of the assignments
// (the order that defines the deterministic_witness winner).
void AppendSplitAssignment(const std::vector<int>& elements, int m,
                           size_t index,
                           std::vector<std::pair<int, int>>& forced) {
  const size_t first = forced.size();
  forced.resize(first + elements.size());
  for (size_t k = elements.size(); k-- > 0;) {
    forced[first + k] = {elements[k],
                         static_cast<int>(index % static_cast<size_t>(m))};
    index /= static_cast<size_t>(m);
  }
}

}  // namespace

Outcome<HomResult> RunParallelSplit(const HomPlan& plan, Budget& budget) {
  HOMPRES_CHECK(plan.strategy == ExecStrategy::kParallelSplit);
  const HomQueryMode mode = plan.problem.mode;
  HOMPRES_CHECK(mode == HomQueryMode::kHas || mode == HomQueryMode::kFind ||
                mode == HomQueryMode::kCount);
  const Structure& a = *plan.problem.source;
  const Structure& b = *plan.problem.target;
  const uint64_t limit = plan.problem.limit;
  if (!budget.Checkpoint()) {
    return Outcome<HomResult>::StoppedShort(budget.Report());
  }
  // Build the indexes the subtree searches share before the workers
  // start, so the lazy build happens once instead of the first tasks
  // racing for the build lock.
  if (plan.config.use_index) {
    (void)a.Index();
    (void)b.Index();
  }

  const int num_tasks = static_cast<int>(plan.split_tasks);
  struct TaskState {
    bool completed = false;
    std::optional<std::vector<int>> witness;
    StopReason stop = StopReason::kNone;
  };
  std::vector<TaskState> states(static_cast<size_t>(num_tasks));
  std::mutex witness_mu;
  int best_witness = num_tasks;  // smallest task index with a witness
  std::atomic<uint64_t> found{0};

  ParallelRegion region(budget, num_tasks);
  ThreadPool pool(std::min(plan.config.num_threads, num_tasks));
  for (int i = 0; i < num_tasks; ++i) {
    pool.Submit(region.GuardedTask([&, i] {
      Budget worker = region.WorkerBudget(i);
      EngineConfig config = plan.config;
      AppendSplitAssignment(plan.split_elements, b.UniverseSize(),
                            static_cast<size_t>(i), config.forced);
      // The state is task-exclusive until TaskDone/Join publish it; only
      // the witness cancellation bookkeeping is shared.
      TaskState& state = states[static_cast<size_t>(i)];
      if (mode == HomQueryMode::kCount) {
        // Each subtree count is clamped at `limit` on its own: a clamped
        // subtree already puts the total at or past the limit.
        const uint64_t count = RunSerialHomKernel(plan.problem, config, worker);
        state.completed =
            (limit != 0 && count >= limit) || !worker.Stopped();
        if (state.completed) {
          uint64_t total = found.load(std::memory_order_relaxed);
          while (!found.compare_exchange_weak(total, SatAdd(total, count),
                                              std::memory_order_relaxed)) {
          }
          if (limit != 0 && SatAdd(total, count) >= limit) {
            // The answer is `limit`; stop every subtree.
            region.CancelAll();
          }
        }
      } else {
        RunSerialHomKernel(plan.problem, config, worker,
                           [&state](const std::vector<int>& h) {
                             state.witness = h;
                             return false;  // stop at the first witness
                           });
        // A witness is a witness even if the budget ran out as it was
        // found.
        state.completed = state.witness.has_value() || !worker.Stopped();
        if (state.witness.has_value()) {
          std::lock_guard<std::mutex> lock(witness_mu);
          if (!plan.config.deterministic_witness) {
            // First finisher: no other subtree can change the decision.
            region.CancelAll();
          } else if (i < best_witness) {
            // Subtrees right of the best witness can no longer win;
            // those left of it may still produce an earlier one.
            best_witness = i;
            region.CancelFrom(best_witness + 1);
          }
        }
      }
      if (!state.completed) state.stop = worker.Report().reason;
      region.TaskDone();
    }));
  }
  const bool external_cancel = region.Join(pool);

  HomResult result;
  if (mode == HomQueryMode::kCount) {
    result.count = found.load(std::memory_order_relaxed);
    if (limit != 0 && result.count >= limit) {
      result.count = limit;
      return Outcome<HomResult>::Done(std::move(result), budget.Report());
    }
  } else {
    for (TaskState& state : states) {
      if (!state.witness.has_value()) continue;
      HOMPRES_CHECK(VerifyHomomorphism(a, b, *state.witness));
      result.has = true;
      if (mode == HomQueryMode::kFind) {
        result.witness = std::move(state.witness);
      }
      return Outcome<HomResult>::Done(std::move(result), budget.Report());
    }
  }
  WorkerStopScan scan;
  for (const TaskState& state : states) {
    scan.Observe(state.completed, state.stop);
  }
  if (!scan.AnyIncomplete()) {
    return Outcome<HomResult>::Done(std::move(result), budget.Report());
  }
  return Outcome<HomResult>::StoppedShort(
      scan.StoppedReport(budget, external_cancel));
}

}  // namespace hompres
