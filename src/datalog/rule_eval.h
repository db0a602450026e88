// The one Datalog rule-body executor, shared by the batch evaluators
// (datalog/eval.cc) and the incremental view maintainer
// (datalog/incremental.cc).
//
// Rules are compiled once: variable names resolve to dense integer
// slots, so join loops never touch a string map. Body atoms are
// reordered greedily — the atom with the most already-bound positions
// joins next, ties keeping the original order (engine/ordering.h) — and
// every inequality is attached to the earliest atom after which both of
// its slots are bound. Compilation is a pure function of the rule and of
// where its order starts.
//
// The batch order (CompileRule) is what full evaluation runs: the
// semi-naive, naive and stage evaluators and a view's from-scratch
// counting pass. Maintenance joins are different problems, so a
// maintained view compiles each rule several times (MaintenanceOrders):
// once per body position, with that position — where the delta, usually
// a handful of tuples, is read — joining first; and once with the head
// slots pre-bound, for the rederivation probes that ask whether one given
// fact still has a derivation. Every order enumerates the same satisfying
// assignments, each once, so results and per-head derivation counts do
// not depend on it; only the work does.
//
// RuleJoin runs one compiled rule against one JoinSource per body atom:
// an EDB relation (the structure's sorted tuple vector, narrowed by its
// RelationIndex when one is available, else by a binary-searched bound
// prefix) or a tuple set, either one optionally rewound by `minus` and
// `plus` sets. Its three sinks derive head tuples into a set, accumulate
// signed per-head derivation counts, or probe whether one pre-bound head
// has any derivation.

#ifndef HOMPRES_DATALOG_RULE_EVAL_H_
#define HOMPRES_DATALOG_RULE_EVAL_H_

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "datalog/program.h"
#include "structure/relation_index.h"
#include "structure/structure.h"

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

// One tuple store a body atom joins against: a tuple set (IDB
// interpretations, delta sets) or a sorted EDB vector with an optional
// RelationIndex accelerator. The effective store is
// (primary - minus) + plus, with plus disjoint from primary — which
// rewinds a post-delta store to its pre-delta value without
// materializing a copy.
struct JoinSource {
  const std::set<Tuple>* set = nullptr;
  const std::vector<Tuple>* vec = nullptr;
  const RelationIndex* index = nullptr;  // may be null even with vec
  int rel = -1;
  const std::set<Tuple>* minus = nullptr;
  const std::set<Tuple>* plus = nullptr;
};

JoinSource SetSource(const std::set<Tuple>& set);

// `source` rewound past a delta that inserted `ins` and removed `rem`.
JoinSource Rewound(JoinSource source, const std::set<Tuple>& ins,
                   const std::set<Tuple>& rem);

// Resolves body atoms against one state: EDB relations read `edb`
// through the index TryIndex() returns at construction (unindexed scans
// when the build fails), IDB relations the interpretation given.
class SourcePlan {
 public:
  SourcePlan(const DatalogProgram& program, const Structure& edb);

  JoinSource Resolve(const DatalogAtom& atom,
                     const std::vector<std::set<Tuple>>& idb) const;

 private:
  const DatalogProgram& program_;
  const Structure& edb_;
  const RelationIndex* index_;
};

// Runs one compiled rule. Every candidate tuple visited is one budget
// step and one derivation; each satisfying combination of source tuples
// is visited exactly once, so CountInto's per-head totals are exact
// derivation counts under any atom order. DeriveInto and CountInto
// return false iff the budget stopped the enumeration (the sink may then
// hold a partial result).
class RuleJoin {
 public:
  RuleJoin(const CompiledRule& rule, const std::vector<JoinSource>& sources,
           Budget& budget, long long* derivations);

  bool DeriveInto(std::set<Tuple>* out);
  bool CountInto(std::map<Tuple, long long>* counts, long long weight);
  // True iff some body assignment derives exactly `head` (false also
  // when the budget stopped the search first).
  bool Exists(const Tuple& head);

 private:
  bool Emit();
  bool Visit(size_t idx, const Tuple& t);
  bool ScanSet(size_t idx, const std::set<Tuple>& store, const Tuple& prefix,
               const std::set<Tuple>* minus);
  bool ScanVec(size_t idx, const JoinSource& src, const Tuple& prefix);
  bool Join(size_t idx);

  const CompiledRule& rule_;
  const std::vector<JoinSource>& sources_;
  Budget& budget_;
  long long* derivations_;
  std::set<Tuple>* out_ = nullptr;
  std::map<Tuple, long long>* counts_ = nullptr;
  long long weight_ = 1;
  bool exists_ = false;
  bool found_ = false;
  std::vector<int> binding_;
  // Per-depth scratch: the join at depth i is not re-entered while its
  // slots are bound or its prefix is in use (the recursion goes to i+1).
  std::vector<std::vector<int>> added_;
  std::vector<Tuple> prefix_;
};

}  // namespace hompres

#endif  // HOMPRES_DATALOG_RULE_EVAL_H_
