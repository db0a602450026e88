// The interpretive scan evaluator, kept as a test oracle for the
// compiled executor of datalog/rule_eval.h (datalog_differential_test)
// and as the scan baseline of the indexed-vs-scan benches (bench_datalog,
// E10).
//
// Each rule body is joined in its written order against full tuple-set
// copies of the EDB relations and the IDB interpretation, with variables
// bound through a string map and inequalities checked only once the whole
// body is bound. The fixpoints, stage counts and per-stage relations
// equal the library evaluators'; the `derivations` totals are the scan's
// own (every candidate tuple of every atom is visited) and are the
// baseline the indexed executor's totals are compared against.
// Serial and unbudgeted.

#ifndef HOMPRES_TESTS_DATALOG_SCAN_ORACLE_H_
#define HOMPRES_TESTS_DATALOG_SCAN_ORACLE_H_

#include "datalog/eval.h"
#include "datalog/program.h"
#include "structure/structure.h"

namespace hompres {

// The m-th stage Phi^m (m >= 0).
IdbInterpretation ScanStage(const DatalogProgram& program,
                            const Structure& edb, int m);

// Least fixpoint by naive (Jacobi) iteration.
DatalogResult ScanEvaluateNaive(const DatalogProgram& program,
                                const Structure& edb);

// Least fixpoint by semi-naive (delta) iteration.
DatalogResult ScanEvaluateSemiNaive(const DatalogProgram& program,
                                    const Structure& edb);

}  // namespace hompres

#endif  // HOMPRES_TESTS_DATALOG_SCAN_ORACLE_H_
