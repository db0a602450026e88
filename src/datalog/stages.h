// Theorem 7.1: the m-th stage of a k-Datalog program's operator is
// definable by a finite disjunction of CQ^k formulas; the program itself
// by the infinitary disjunction over all stages. This header materializes
// the stage formulas as unions of conjunctive queries by unfolding rules.

#ifndef HOMPRES_DATALOG_STAGES_H_
#define HOMPRES_DATALOG_STAGES_H_

#include <optional>

#include "cq/ucq.h"
#include "datalog/eval.h"
#include "datalog/program.h"

namespace hompres {

// The UCQ (over the EDB vocabulary, with arity = the IDB's arity) that
// defines stage m of IDB predicate `idb_index`: Theta^0 = false,
// Theta^{m+1} = union over rules of the rule body with every IDB atom
// replaced by a disjunct of the previous stage. Disjunct counts can grow
// exponentially in m; `max_disjuncts` caps the result (0 = uncapped;
// construction CHECK-fails past 1e6 as a runaway guard). If `minimize`,
// each stage is UCQ-minimized before unfolding the next, which usually
// keeps the union small.
UnionOfCq StageUcq(const DatalogProgram& program, int idb_index, int m,
                   bool minimize = true);

// Ajtai-Gurevich boundedness probe: the smallest s < max_stage with
// Theta^s ≡ Theta^{s+1} for `idb_index` and for every IDB it reads,
// transitively (then they all stay stable, and the program computes
// `idb_index` within s stages on every finite structure), or nullopt if
// none below the cap. Stability of `idb_index` alone is not enough: it
// can repeat a stage while a predicate it reads still grows. Equivalence
// of stage formulas is decided by Sagiv-Yannakakis.
std::optional<int> FindBoundednessWitness(const DatalogProgram& program,
                                          int idb_index, int max_stage);

}  // namespace hompres

#endif  // HOMPRES_DATALOG_STAGES_H_
