#include "datalog/eval.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "base/check.h"
#include "base/failpoint.h"
#include "base/parallel_driver.h"
#include "base/thread_pool.h"
#include "datalog/rule_eval.h"

namespace hompres {

namespace {

// One rule-body evaluation of a round: the compiled rule, the resolved
// sources for its body atoms (by original body position), and the IDB
// index its head derives into.
struct RuleJob {
  const CompiledRule* rule = nullptr;
  std::vector<JoinSource> sources;
  int head = 0;
};

bool ApplyJob(const RuleJob& job, Budget& budget, long long* derivations,
              std::set<Tuple>* out) {
  return RuleJoin(*job.rule, job.sources, budget, derivations)
      .DeriveInto(out);
}

// Runs the rule jobs of a fixpoint's rounds, inserting each job's head
// tuples into (*out)[job.head] and adding the assignments enumerated to
// *derivations. Serial when num_threads <= 0; otherwise a round of two or
// more jobs fans out over a work-stealing pool — created on the first
// such round, sized for the widest round, and reused by the later ones —
// each job deriving into its own set (the sources are read-only during
// the region), merged after the join: the same tuples and derivation
// count as the serial run.
class RoundRunner {
 public:
  RoundRunner(int num_threads, int widest_round)
      : num_threads_(std::min(num_threads, widest_round)) {}

  // Returns true iff every job completed; on false, *stop says why (the
  // parent budget may carry no reason itself).
  bool Run(const std::vector<RuleJob>& jobs, Budget& budget,
           long long* derivations, IdbInterpretation* out, StopReason* stop) {
    // Injected mid-fixpoint degradation: a round whose fan-out fails runs
    // serially instead. Tuples and derivation counts are identical by the
    // merge contract, so answers are unchanged.
    const bool parallel = num_threads_ > 0 &&
                          !HOMPRES_FAILPOINT("datalog/parallel_round") &&
                          jobs.size() >= 2;
    if (!parallel) {
      for (const RuleJob& job : jobs) {
        if (!ApplyJob(job, budget, derivations,
                      &(*out)[static_cast<size_t>(job.head)])) {
          *stop = budget.Reason();
          return false;
        }
      }
      return true;
    }
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(num_threads_);
    const int num_tasks = static_cast<int>(jobs.size());
    struct TaskState {
      bool completed = false;
      std::set<Tuple> derived;
      long long derivations = 0;
      StopReason stop = StopReason::kNone;
    };
    std::vector<TaskState> states(static_cast<size_t>(num_tasks));
    ParallelRegion region(budget, num_tasks);
    for (int i = 0; i < num_tasks; ++i) {
      pool_->Submit(region.GuardedTask([&, i] {
        Budget worker = region.WorkerBudget(i);
        // Task-exclusive state; TaskDone/Join publish it to the joiner.
        TaskState& state = states[static_cast<size_t>(i)];
        const RuleJob& job = jobs[static_cast<size_t>(i)];
        state.completed =
            ApplyJob(job, worker, &state.derivations, &state.derived);
        if (!state.completed) state.stop = worker.Reason();
        region.TaskDone();
      }));
    }
    // Join waits for the pool to go idle, so the next round may reuse it.
    const bool external_cancel = region.Join(*pool_);
    WorkerStopScan scan;
    for (const TaskState& state : states) {
      scan.Observe(state.completed, state.stop);
    }
    if (scan.AnyIncomplete()) {
      *stop = scan.StoppedReport(budget, external_cancel).reason;
      return false;
    }
    for (int i = 0; i < num_tasks; ++i) {
      TaskState& state = states[static_cast<size_t>(i)];
      *derivations += state.derivations;
      (*out)[static_cast<size_t>(jobs[static_cast<size_t>(i)].head)].insert(
          state.derived.begin(), state.derived.end());
    }
    return true;
  }

 private:
  const int num_threads_;
  std::unique_ptr<ThreadPool> pool_;
};

Outcome<DatalogResult> StoppedEval(const Budget& budget, StopReason stop) {
  BudgetReport report = budget.Report();
  if (report.reason == StopReason::kNone) report.reason = stop;
  return Outcome<DatalogResult>::StoppedShort(report);
}

// One application of the program's operator (Jacobi): every rule against
// `current`, heads into `next`. False iff the budget stopped it.
bool ApplyOperator(const DatalogProgram& program,
                   const std::vector<CompiledRule>& compiled,
                   const SourcePlan& plan, const IdbInterpretation& current,
                   Budget& budget, long long* derivations,
                   IdbInterpretation* next) {
  next->assign(static_cast<size_t>(program.Idb().NumRelations()), {});
  for (size_t r = 0; r < program.Rules().size(); ++r) {
    const DatalogRule& rule = program.Rules()[r];
    std::vector<JoinSource> sources;
    for (const DatalogAtom& atom : rule.body) {
      sources.push_back(plan.Resolve(atom, current));
    }
    const int head = program.IdbIndex(rule.head.relation);
    if (!RuleJoin(compiled[r], sources, budget, derivations)
             .DeriveInto(&(*next)[static_cast<size_t>(head)])) {
      return false;
    }
  }
  return true;
}

}  // namespace

Outcome<IdbInterpretation> StageBudgeted(const DatalogProgram& program,
                                         const Structure& edb, int m,
                                         Budget& budget) {
  HOMPRES_CHECK_GE(m, 0);
  HOMPRES_CHECK(program.Edb() == edb.GetVocabulary());
  const std::vector<CompiledRule> compiled = CompileProgram(program);
  const SourcePlan plan(program, edb);
  IdbInterpretation current(
      static_cast<size_t>(program.Idb().NumRelations()));
  IdbInterpretation next;
  long long derivations = 0;
  for (int step = 0; step < m; ++step) {
    if (!ApplyOperator(program, compiled, plan, current, budget,
                       &derivations, &next)) {
      return Outcome<IdbInterpretation>::StoppedShort(budget.Report());
    }
    current.swap(next);
  }
  return Outcome<IdbInterpretation>::Done(std::move(current),
                                          budget.Report());
}

IdbInterpretation Stage(const DatalogProgram& program, const Structure& edb,
                        int m) {
  Budget unlimited = Budget::Unlimited();
  return std::move(StageBudgeted(program, edb, m, unlimited)).TakeValue();
}

Outcome<DatalogResult> EvaluateNaiveBudgeted(const DatalogProgram& program,
                                             const Structure& edb,
                                             Budget& budget) {
  HOMPRES_CHECK(program.Edb() == edb.GetVocabulary());
  const std::vector<CompiledRule> compiled = CompileProgram(program);
  const SourcePlan plan(program, edb);
  DatalogResult result;
  result.idb.assign(static_cast<size_t>(program.Idb().NumRelations()), {});
  IdbInterpretation next;
  for (;;) {
    if (!ApplyOperator(program, compiled, plan, result.idb, budget,
                       &result.derivations, &next)) {
      return Outcome<DatalogResult>::StoppedShort(budget.Report());
    }
    if (next == result.idb) break;
    result.idb.swap(next);
    ++result.stages;
  }
  return Outcome<DatalogResult>::Done(std::move(result), budget.Report());
}

DatalogResult EvaluateNaive(const DatalogProgram& program,
                            const Structure& edb) {
  Budget unlimited = Budget::Unlimited();
  return std::move(EvaluateNaiveBudgeted(program, edb, unlimited))
      .TakeValue();
}

Outcome<DatalogResult> EvaluateSemiNaiveBudgeted(
    const DatalogProgram& program, const Structure& edb, Budget& budget,
    const DatalogEvalOptions& options) {
  HOMPRES_CHECK(program.Edb() == edb.GetVocabulary());
  const std::vector<CompiledRule> compiled = CompileProgram(program);
  const SourcePlan plan(program, edb);
  const size_t idb_count =
      static_cast<size_t>(program.Idb().NumRelations());
  DatalogResult result;
  result.idb.assign(idb_count, {});
  StopReason stop = StopReason::kNone;

  // Round 1 runs the EDB-only rules; every later round one job per IDB
  // body position.
  std::vector<RuleJob> jobs;
  size_t idb_positions = 0;
  for (size_t r = 0; r < program.Rules().size(); ++r) {
    const DatalogRule& rule = program.Rules()[r];
    size_t idb_atoms = 0;
    for (const DatalogAtom& atom : rule.body) {
      idb_atoms += program.IdbIndexOf(atom.relation).has_value() ? 1 : 0;
    }
    idb_positions += idb_atoms;
    if (idb_atoms > 0) continue;  // needs IDB facts; none yet
    RuleJob& job = jobs.emplace_back();
    job.rule = &compiled[r];
    job.head = program.IdbIndex(rule.head.relation);
    for (const DatalogAtom& atom : rule.body) {
      job.sources.push_back(plan.Resolve(atom, result.idb));
    }
  }
  RoundRunner runner(options.num_threads,
                     static_cast<int>(std::max(jobs.size(), idb_positions)));
  IdbInterpretation delta(idb_count);
  if (!runner.Run(jobs, budget, &result.derivations, &delta, &stop)) {
    return StoppedEval(budget, stop);
  }

  bool any_delta = false;
  for (const auto& d : delta) any_delta |= !d.empty();
  while (any_delta) {
    ++result.stages;
    // Merge delta into full.
    for (size_t i = 0; i < idb_count; ++i) {
      result.idb[i].insert(delta[i].begin(), delta[i].end());
    }
    // Derive the next delta: for each rule and each IDB body position,
    // evaluate with that position restricted to the current delta. The
    // jobs only read delta / result.idb / the EDB sources, none of which
    // change until the round's jobs have all completed.
    IdbInterpretation derived(idb_count);
    jobs.clear();
    for (size_t r = 0; r < program.Rules().size(); ++r) {
      const DatalogRule& rule = program.Rules()[r];
      const int head = program.IdbIndex(rule.head.relation);
      for (size_t delta_position = 0; delta_position < rule.body.size();
           ++delta_position) {
        const auto idb_index =
            program.IdbIndexOf(rule.body[delta_position].relation);
        if (!idb_index.has_value()) continue;
        RuleJob& job = jobs.emplace_back();
        job.rule = &compiled[r];
        job.head = head;
        for (size_t i = 0; i < rule.body.size(); ++i) {
          job.sources.push_back(
              i == delta_position
                  ? SetSource(delta[static_cast<size_t>(*idb_index)])
                  : plan.Resolve(rule.body[i], result.idb));
        }
      }
    }
    if (!runner.Run(jobs, budget, &result.derivations, &derived, &stop)) {
      return StoppedEval(budget, stop);
    }
    // New facts only.
    IdbInterpretation next_delta(idb_count);
    any_delta = false;
    for (size_t i = 0; i < idb_count; ++i) {
      for (const Tuple& t : derived[i]) {
        if (result.idb[i].count(t) == 0) {
          next_delta[i].insert(t);
          any_delta = true;
        }
      }
    }
    delta = std::move(next_delta);
  }
  return Outcome<DatalogResult>::Done(std::move(result), budget.Report());
}

DatalogResult EvaluateSemiNaive(const DatalogProgram& program,
                                const Structure& edb,
                                const DatalogEvalOptions& options) {
  Budget unlimited = Budget::Unlimited();
  return std::move(
             EvaluateSemiNaiveBudgeted(program, edb, unlimited, options))
      .TakeValue();
}

}  // namespace hompres
