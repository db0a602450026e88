// Bottom-up Datalog evaluation: naive (recompute all rules per stage) and
// semi-naive (delta-driven). Stage semantics follow Section 2.3: stage
// m+1 applies the operator to stage m simultaneously (Jacobi iteration),
// so stage counts line up with the formulas of Theorem 7.1.
//
// Every entry point runs the one rule-body executor of
// datalog/rule_eval.h: each rule is compiled once per evaluation —
// variable names resolved to dense integer slots, body atoms greedily
// reordered so atoms with the most bound positions join first, inequality
// constraints checked the moment both sides are bound — and bound-position
// atoms are answered with bound-prefix ranges on the sorted tuple stores
// and, for EDB relations, the shortest inverted list of the structure's
// RelationIndex. When the index cannot be built (Structure::TryIndex
// returns null) EDB atoms fall back to binary-searched prefix ranges on
// the sorted vectors: the same fixpoint and stages, more assignments
// visited. The `derivations` work measure (= budget steps) counts the
// candidate tuples visited.

#ifndef HOMPRES_DATALOG_EVAL_H_
#define HOMPRES_DATALOG_EVAL_H_

#include <set>
#include <vector>

#include "base/budget.h"
#include "base/outcome.h"
#include "datalog/program.h"
#include "structure/structure.h"

namespace hompres {

// Interpretation of the IDB predicates: one tuple set per IDB index.
using IdbInterpretation = std::vector<std::set<Tuple>>;

struct DatalogEvalOptions {
  // Number of worker threads for the per-round rule jobs (semi-naive
  // only); 0 = serial. The fixpoint, stage count and derivation total
  // are identical to the serial run for any thread count.
  int num_threads = 0;

  DatalogEvalOptions() = default;
  // Implicit so existing `EvaluateSemiNaive(program, edb, 3)` call sites
  // keep reading as a thread count.
  DatalogEvalOptions(int threads) : num_threads(threads) {}
};

struct DatalogResult {
  IdbInterpretation idb;
  // Smallest m with stage(m) == stage(m+1) (m_0 in the paper's notation).
  int stages = 0;
  // Total rule-body assignments enumerated (work measure for benches).
  long long derivations = 0;
};

// The m-th stage Phi^m of the program's operator on `edb` (m >= 0).
IdbInterpretation Stage(const DatalogProgram& program, const Structure& edb,
                        int m);

// Budgeted stage computation (one step per rule-body assignment
// enumerated).
Outcome<IdbInterpretation> StageBudgeted(const DatalogProgram& program,
                                         const Structure& edb, int m,
                                         Budget& budget);

// Least fixpoint by naive iteration.
DatalogResult EvaluateNaive(const DatalogProgram& program,
                            const Structure& edb);

// Budgeted naive fixpoint: Done(result) only when the fixpoint was
// reached; Exhausted/Cancelled mean evaluation stopped mid-iteration and
// no (partial) interpretation is claimed.
Outcome<DatalogResult> EvaluateNaiveBudgeted(const DatalogProgram& program,
                                             const Structure& edb,
                                             Budget& budget);

// Least fixpoint by semi-naive (delta) iteration; produces the same
// relations and stage count, typically with far fewer derivations.
//
// With options.num_threads > 0 the rule-body evaluations of each round —
// one job per (rule, delta position) pair — fan out over a work-stealing
// pool (created once per evaluation), each job deriving into its own
// tuple set, merged after the round. The fixpoint, stage count and
// derivation total are identical to the serial evaluation (every job
// enumerates the same assignments either way).
DatalogResult EvaluateSemiNaive(const DatalogProgram& program,
                                const Structure& edb,
                                const DatalogEvalOptions& options = {});

Outcome<DatalogResult> EvaluateSemiNaiveBudgeted(
    const DatalogProgram& program, const Structure& edb, Budget& budget,
    const DatalogEvalOptions& options = {});

}  // namespace hompres

#endif  // HOMPRES_DATALOG_EVAL_H_
