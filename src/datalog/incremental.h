// Incremental Datalog view maintenance (DESIGN.md §4.10).
//
// A MaterializedView owns a program, a base structure, and the program's
// least fixpoint over it, and keeps all three consistent under
// StructureDelta edit scripts without refixpointing from scratch. The
// strategy is chosen per delta by engine/maintain.h's planner:
//
//   * bounded-UCQ     — when every IDB carries an Ajtai-Gurevich
//                       boundedness certificate (datalog/stages.h), the
//                       fixpoint IS the stage-s unfolding Theta^s, a
//                       plain UCQ over the EDB (Theorem 7.5). The view
//                       optimizes each unfolding once at certification
//                       time (opt/optimizer.h), turns every disjunct into
//                       an EDB-only rule IDB(free) <- canonical atoms,
//                       and maintains that non-recursive rule set by
//                       counting: cost set by the delta, exact under
//                       insertion and deletion.
//   * counting        — non-recursive programs keep the number of
//                       derivations of every IDB fact. A delta updates
//                       the counts by the signed inclusion-exclusion
//                       staging sum (one join per rule and delta
//                       position, positions left of the delta reading
//                       the new state, positions right of it the old),
//                       exact under insertion AND deletion.
//   * delta-insert    — insertion-only deltas into recursive programs
//                       run semi-naive rounds seeded by the inserted
//                       tuples; set semantics make over-derivation
//                       harmless.
//   * DRed            — deletions in recursive programs overdelete
//                       (everything with a derivation through a deleted
//                       fact, computed on the old state), then rederive
//                       survivors by head-bound existence probes, then
//                       handle the inserted half by delta-insert.
//   * from-scratch    — the always-sound fallback: a full semi-naive
//                       refixpoint. Forced by options (the differential
//                       baseline) or by a "view/maintain" fault, which
//                       is recorded as a kMaintainToFromScratch
//                       degradation — faults cost time, never answers.
//
// Every strategy yields the same IDB a from-scratch evaluation of the
// mutated base would: the randomized differential harness
// (tests/incremental_datalog_test.cc) replays insert/delete streams
// against both and requires equality at every step.
//
// Deltas are applied by NET effect: inserts and removes of the same
// tuple within one script cancel, and element appends take effect before
// any tuple op. The resulting base state equals the sequential
// Structure::Apply of the same script.

#ifndef HOMPRES_DATALOG_INCREMENTAL_H_
#define HOMPRES_DATALOG_INCREMENTAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "datalog/eval.h"
#include "datalog/program.h"
#include "datalog/rule_eval.h"
#include "engine/maintain.h"
#include "structure/delta.h"
#include "structure/structure.h"

namespace hompres {

struct MaterializedViewOptions {
  // Cap for the construction-time Ajtai-Gurevich boundedness probe
  // (datalog/stages.h): a witness below the cap for every IDB certifies
  // the program for the bounded-UCQ strategy. 0 disables the probe (and the
  // strategy). Programs with inequalities are never probed — stage
  // unfolding is unavailable for Datalog(≠).
  int max_bounded_stage = 2;

  // Worker threads for the certification-time stage-UCQ optimization
  // and for semi-naive (re)fixpoints of views without counting state.
  // Maintenance joins are serial. 0 = serial.
  int num_threads = 0;

  // Always maintain by full refixpoint: the bit-identical baseline the
  // differential tests compare the incremental strategies against.
  bool force_from_scratch = false;
};

// What one Apply() did, for callers that report or assert on it
// (hompresd's per-request maintenance block, the benches, the tests).
struct ViewMaintenanceStats {
  // Chosen strategy, the traits that chose it, and any degradations
  // taken while executing it (Explain()/Summary() render it).
  MaintenancePlan plan;

  // What the base structure's own delta application did (index
  // maintenance, compaction, version). For DRed the script is applied
  // in stages (removals before insertions) and the fields accumulate.
  DeltaApplyResult base;

  // Rule-body assignments enumerated by the maintenance joins.
  long long derivations = 0;

  // Semi-naive / overdeletion rounds run (from-scratch: fixpoint
  // stages).
  int rounds = 0;

  // Gross IDB tuple flow out of this Apply: facts inserted into /
  // removed from the maintained interpretation.
  int idb_inserted = 0;
  int idb_removed = 0;

  // DRed only: overdeleted facts saved by the rederivation pass.
  int rederived = 0;

  // A full refixpoint ran (from-scratch strategy, forced or degraded).
  bool recomputed = false;
};

class MaterializedView {
 public:
  // Evaluates the initial fixpoint (and, when enabled, runs the
  // boundedness probe + stage-UCQ optimization) up front, so Apply()
  // never pays first-call setup. Requires program.Edb() ==
  // base.GetVocabulary().
  MaterializedView(DatalogProgram program, Structure base,
                   MaterializedViewOptions options = {});

  const DatalogProgram& GetProgram() const { return program_; }
  const Structure& Base() const { return base_; }

  // Version of the maintained base structure (bumps with every
  // effective op applied through this view).
  uint64_t Version() const { return base_.Version(); }

  // The maintained least fixpoint: one tuple set per IDB index.
  const IdbInterpretation& Idb() const { return idb_; }
  const std::set<Tuple>& IdbRelation(int idb_index) const;

  // Derivation counts per IDB fact over the rule set the view maintains
  // (the program's rules, or its stage-UCQ unfolding once bounded);
  // empty when the view keeps no counting state (recursive and not
  // bounded, or the forced baseline).
  const std::vector<std::map<Tuple, long long>>& DerivationCounts() const {
    return counts_;
  }

  bool Recursive() const { return recursive_; }

  // True iff every IDB was certified bounded at construction;
  // BoundedStage() is then the largest witness stage.
  bool Bounded() const { return bounded_; }
  int BoundedStage() const { return bounded_stage_; }

  // Applies `delta` to the base structure and maintains the fixpoint.
  ViewMaintenanceStats Apply(const StructureDelta& delta);

 private:
  struct NetDelta;  // per-relation net insert/remove sets

  NetDelta ComputeNet(const StructureDelta& delta) const;
  void FullCountingEval(long long* derivations);
  void Refixpoint(ViewMaintenanceStats* stats);
  void MaintainCounting(const NetDelta& net, ViewMaintenanceStats* stats);
  void FrontierFixpoint(const std::vector<std::set<Tuple>>& seeds,
                        const std::function<bool(size_t, const Tuple&)>& admit,
                        ViewMaintenanceStats* stats);
  void DeltaInsert(const std::vector<std::set<Tuple>>& edb_ins,
                   ViewMaintenanceStats* stats);
  void DRed(const NetDelta& net, ViewMaintenanceStats* stats);
  bool ExistsDerivation(int idb_index, const Tuple& fact,
                        long long* derivations) const;

  // The rule set every maintenance join reads: the program's own rules,
  // or, once bounded, the stage-UCQ unfolding.
  const std::vector<DatalogRule>& Rules() const {
    return bounded_ ? unfolding_ : program_.Rules();
  }

  DatalogProgram program_;
  MaterializedViewOptions options_;
  Structure base_;
  // Join orders per Rules() entry (datalog/rule_eval.h): full counting
  // evaluation runs the batch order, every delta join the order that
  // starts at its delta position, and DRed's rederivation probes the
  // head-bound order.
  std::vector<MaintenanceOrders> compiled_;
  std::vector<int> rule_heads_;  // IDB index per Rules() entry

  bool recursive_ = false;
  bool has_inequalities_ = false;
  // IDB evaluation order over Rules() (empty when recursive and not
  // bounded).
  std::vector<int> topo_;

  bool bounded_ = false;
  int bounded_stage_ = 0;
  // One EDB-only rule per optimized stage-UCQ disjunct; when bounded.
  std::vector<DatalogRule> unfolding_;

  IdbInterpretation idb_;
  // Derivation counts per IDB fact over Rules(); maintained exactly when
  // counting or bounded-UCQ is reachable (bounded or non-recursive, not
  // a forced baseline).
  std::vector<std::map<Tuple, long long>> counts_;
  bool counting_state_ = false;
};

}  // namespace hompres

#endif  // HOMPRES_DATALOG_INCREMENTAL_H_
