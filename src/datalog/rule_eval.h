// Compiled rule bodies, shared by the batch evaluators (datalog/eval.cc)
// and the incremental view maintainer (datalog/incremental.cc).
//
// Variable names resolve to dense integer slots once per compilation, so
// join loops never touch a string map. Body atoms are reordered greedily
// — the atom with the most already-bound positions joins next, ties
// keeping the original order (engine/ordering.h) — and every inequality
// is attached to the earliest atom after which both of its slots are
// bound. Compilation is a pure function of the rule and of where its
// order starts.
//
// The batch order (CompileRule) is what full evaluation runs: the
// semi-naive engine and a view's from-scratch counting pass. Maintenance
// joins are different problems, so a maintained view compiles each rule
// several times (MaintenanceOrders): once per body position, with that
// position — where the delta, usually a handful of tuples, is read —
// joining first; and once with the head slots pre-bound, for the
// rederivation probes that ask whether one given fact still has a
// derivation. Every order enumerates the same satisfying assignments,
// each once, so results and per-head derivation counts do not depend on
// it; only the work does.

#ifndef HOMPRES_DATALOG_RULE_EVAL_H_
#define HOMPRES_DATALOG_RULE_EVAL_H_

#include <utility>
#include <vector>

#include "datalog/program.h"

namespace hompres {

struct CompiledAtom {
  int body_pos;            // original body index (keys into job sources)
  std::vector<int> slots;  // variable slot per argument position
};

struct CompiledRule {
  int num_slots = 0;
  std::vector<CompiledAtom> atoms;  // greedy bound-first order
  std::vector<int> head_slots;
  // ineqs_after[i]: slot pairs to check right after atoms[i] unifies.
  std::vector<std::vector<std::pair<int, int>>> ineqs_after;
};

// The batch order.
CompiledRule CompileRule(const DatalogRule& rule);

// The orders a maintained view runs one rule under.
struct MaintenanceOrders {
  CompiledRule full;                     // batch order: full evaluation
  std::vector<CompiledRule> from_delta;  // [i]: body atom i joins first
  // Head slots count as bound from the start, so the join must bind
  // them before it runs (the existence probes of DRed rederivation).
  CompiledRule head_bound;
};

MaintenanceOrders CompileMaintenanceOrders(const DatalogRule& rule);

// One compiled rule per program rule, in rule order.
std::vector<CompiledRule> CompileProgram(const DatalogProgram& program);

}  // namespace hompres

#endif  // HOMPRES_DATALOG_RULE_EVAL_H_
