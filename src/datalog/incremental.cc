#include "datalog/incremental.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "base/budget.h"
#include "base/check.h"
#include "base/failpoint.h"
#include "datalog/stages.h"
#include "opt/optimizer.h"

namespace hompres {

namespace {

// IDB dependency order: edge q -> p when a rule with head p reads q in
// its body. Kahn's algorithm; false (and an unspecified partial order)
// when the graph has a cycle — the program is recursive.
bool TopoOrderIdb(const DatalogProgram& program, std::vector<int>* order) {
  const int n = program.Idb().NumRelations();
  std::vector<std::set<int>> succs(static_cast<size_t>(n));
  std::vector<int> indegree(static_cast<size_t>(n), 0);
  for (const DatalogRule& rule : program.Rules()) {
    const int p = program.IdbIndex(rule.head.relation);
    for (const DatalogAtom& atom : rule.body) {
      const auto q = program.IdbIndexOf(atom.relation);
      if (!q.has_value()) continue;
      if (succs[static_cast<size_t>(*q)].insert(p).second) {
        ++indegree[static_cast<size_t>(p)];
      }
    }
  }
  std::deque<int> ready;
  for (int p = 0; p < n; ++p) {
    if (indegree[static_cast<size_t>(p)] == 0) ready.push_back(p);
  }
  order->clear();
  order->reserve(static_cast<size_t>(n));
  while (!ready.empty()) {
    const int q = ready.front();
    ready.pop_front();
    order->push_back(q);
    for (int p : succs[static_cast<size_t>(q)]) {
      if (--indegree[static_cast<size_t>(p)] == 0) ready.push_back(p);
    }
  }
  return static_cast<int>(order->size()) == n;
}

void DiffStats(const IdbInterpretation& before,
               const IdbInterpretation& after,
               ViewMaintenanceStats* stats) {
  for (size_t i = 0; i < before.size(); ++i) {
    for (const Tuple& t : after[i]) {
      if (before[i].count(t) == 0) ++stats->idb_inserted;
    }
    for (const Tuple& t : before[i]) {
      if (after[i].count(t) == 0) ++stats->idb_removed;
    }
  }
}

// Folds a staged Structure::Apply result into the running stats (DRed
// applies the script in stages: appends, removals, insertions).
void AccumulateBase(const DeltaApplyResult& r, ViewMaintenanceStats* stats) {
  stats->base.tuples_inserted += r.tuples_inserted;
  stats->base.tuples_removed += r.tuples_removed;
  stats->base.elements_appended += r.elements_appended;
  stats->base.noop_ops += r.noop_ops;
  stats->base.index_maintained |= r.index_maintained;
  stats->base.index_degraded |= r.index_degraded;
  stats->base.index_compacted |= r.index_compacted;
  stats->base.version = r.version;
}

// One stage-UCQ disjunct as an EDB-only rule head(free) <- canonical
// atoms: element e becomes the variable named std::to_string(e), so a
// repeated free element stays a repeated head variable.
DatalogRule DisjunctRule(const std::string& head, const ConjunctiveQuery& cq) {
  const Structure& canonical = cq.Canonical();
  // Rule safety, kept by core minimization: every variable is in an atom.
  HOMPRES_CHECK(canonical.IsolatedElements().empty());
  DatalogRule rule;
  rule.head.relation = head;
  for (int e : cq.FreeElements()) {
    rule.head.arguments.push_back(std::to_string(e));
  }
  const Vocabulary& voc = canonical.GetVocabulary();
  for (int rel = 0; rel < voc.NumRelations(); ++rel) {
    for (const Tuple& t : canonical.Tuples(rel)) {
      DatalogAtom& atom = rule.body.emplace_back();
      atom.relation = voc.Name(rel);
      for (int e : t) atom.arguments.push_back(std::to_string(e));
    }
  }
  return rule;
}

}  // namespace

// Per-EDB-relation net effect of a delta script: inserts and removes of
// the same tuple cancel, so `ins` holds exactly the tuples the script
// adds to the final state and `rem` exactly those it takes away.
struct MaterializedView::NetDelta {
  std::vector<std::set<Tuple>> ins;
  std::vector<std::set<Tuple>> rem;
  int appends = 0;
  int inserted = 0;
  int removed = 0;
};

MaterializedView::NetDelta MaterializedView::ComputeNet(
    const StructureDelta& delta) const {
  NetDelta net;
  const size_t num_rels =
      static_cast<size_t>(program_.Edb().NumRelations());
  net.ins.assign(num_rels, {});
  net.rem.assign(num_rels, {});
  for (const DeltaOp& op : delta.Ops()) {
    if (op.kind == DeltaOp::Kind::kAppendElements) {
      net.appends += op.count;
      continue;
    }
    auto& ins = net.ins[static_cast<size_t>(op.rel)];
    auto& rem = net.rem[static_cast<size_t>(op.rel)];
    // Present in the state the script has built so far?
    const bool present =
        ins.count(op.tuple) != 0 ||
        (rem.count(op.tuple) == 0 && base_.HasTuple(op.rel, op.tuple));
    if (op.kind == DeltaOp::Kind::kInsertTuple) {
      if (present) continue;
      // Re-inserting a tuple the script removed restores the base value.
      if (rem.erase(op.tuple) == 0) ins.insert(op.tuple);
    } else {
      if (!present) continue;
      if (ins.erase(op.tuple) == 0) rem.insert(op.tuple);
    }
  }
  for (size_t rel = 0; rel < num_rels; ++rel) {
    net.inserted += static_cast<int>(net.ins[rel].size());
    net.removed += static_cast<int>(net.rem[rel].size());
  }
  return net;
}

MaterializedView::MaterializedView(DatalogProgram program, Structure base,
                                   MaterializedViewOptions options)
    : program_(std::move(program)),
      options_(options),
      base_(std::move(base)) {
  HOMPRES_CHECK(program_.Edb() == base_.GetVocabulary());
  has_inequalities_ = program_.HasInequalities();
  recursive_ = !TopoOrderIdb(program_, &topo_);
  const size_t idb_count =
      static_cast<size_t>(program_.Idb().NumRelations());
  idb_.assign(idb_count, {});

  // Boundedness certification (skipped for Datalog(≠): stage unfolding
  // is unavailable there, and for the forced baseline, which never uses
  // the strategy). Every IDB must carry a witness; the stage UCQs are
  // optimized once, here, and their disjuncts become the EDB-only rules
  // that counting maintains from then on.
  if (options_.max_bounded_stage > 0 && !has_inequalities_ &&
      !options_.force_from_scratch) {
    std::vector<int> stages(idb_count, 0);
    bool all = true;
    for (size_t i = 0; i < idb_count && all; ++i) {
      const auto witness = FindBoundednessWitness(
          program_, static_cast<int>(i), options_.max_bounded_stage);
      if (witness.has_value()) {
        stages[i] = *witness;
      } else {
        all = false;
      }
    }
    if (all) {
      bounded_ = true;
      Budget unlimited = Budget::Unlimited();
      OptimizerOptions opt;
      opt.num_threads = options_.num_threads;
      topo_.clear();  // unfolded IDBs read no IDB: any order works
      for (size_t i = 0; i < idb_count; ++i) {
        const int idb = static_cast<int>(i);
        bounded_stage_ = std::max(bounded_stage_, stages[i]);
        const UnionOfCq ucq = OptimizeUcqBudgeted(
            StageUcq(program_, idb, stages[i]), unlimited, opt);
        for (const ConjunctiveQuery& disjunct : ucq.Disjuncts()) {
          unfolding_.push_back(
              DisjunctRule(program_.Idb().Name(idb), disjunct));
        }
        topo_.push_back(idb);
      }
    }
  }
  for (const DatalogRule& rule : Rules()) {
    compiled_.push_back(CompileMaintenanceOrders(rule));
    rule_heads_.push_back(program_.IdbIndex(rule.head.relation));
  }

  counting_state_ =
      (bounded_ || !recursive_) && !options_.force_from_scratch;
  if (counting_state_) {
    counts_.assign(idb_count, {});
    long long derivations = 0;
    FullCountingEval(&derivations);
  } else {
    DatalogEvalOptions eval_options;
    eval_options.num_threads = options_.num_threads;
    idb_ = EvaluateSemiNaive(program_, base_, eval_options).idb;
  }
}

const std::set<Tuple>& MaterializedView::IdbRelation(int idb_index) const {
  HOMPRES_CHECK_GE(idb_index, 0);
  HOMPRES_CHECK_LT(idb_index, static_cast<int>(idb_.size()));
  return idb_[static_cast<size_t>(idb_index)];
}

// Full evaluation of the (non-recursive) rule set that also (re)builds the
// counts: one counting join per rule, IDBs in dependency order.
void MaterializedView::FullCountingEval(long long* derivations) {
  const SourcePlan plan(program_, base_);
  Budget unlimited = Budget::Unlimited();
  for (auto& counts : counts_) counts.clear();
  for (auto& set : idb_) set.clear();
  for (int p : topo_) {
    for (size_t r = 0; r < Rules().size(); ++r) {
      if (rule_heads_[r] != p) continue;
      std::vector<JoinSource> sources;
      for (const DatalogAtom& atom : Rules()[r].body) {
        sources.push_back(plan.Resolve(atom, idb_));
      }
      RuleJoin(compiled_[r].full, sources, unlimited, derivations)
          .CountInto(&counts_[static_cast<size_t>(p)], 1);
    }
    auto& set = idb_[static_cast<size_t>(p)];
    for (const auto& [t, c] : counts_[static_cast<size_t>(p)]) {
      HOMPRES_CHECK_GT(c, 0);
      set.insert(set.end(), t);
    }
  }
}

ViewMaintenanceStats MaterializedView::Apply(const StructureDelta& delta) {
  ViewMaintenanceStats stats;
  const NetDelta net = ComputeNet(delta);

  MaintenanceTraits traits;
  traits.recursive = recursive_;
  traits.has_inequalities = has_inequalities_;
  traits.bounded = bounded_;
  traits.bounded_stage = bounded_stage_;
  traits.inserted = net.inserted;
  traits.removed = net.removed;
  traits.appended_elements = net.appends;
  traits.force_from_scratch = options_.force_from_scratch;
  stats.plan = PlanMaintenance(traits);

  // Injected maintenance fault: demote the incremental strategy to a
  // full refixpoint. Costs a recompute, never a wrong IDB; the plan
  // keeps the strategy it chose and records the demotion.
  MaintainStrategy strategy = stats.plan.strategy;
  if (strategy != MaintainStrategy::kFromScratch &&
      strategy != MaintainStrategy::kNoOp &&
      HOMPRES_FAILPOINT("view/maintain")) {
    stats.plan.degradations.push_back(DegradationEvent{
        DegradationKind::kMaintainToFromScratch, "view/maintain",
        std::string(MaintainStrategyName(strategy)) +
            " demoted to a full refixpoint"});
    strategy = MaintainStrategy::kFromScratch;
  }

  switch (strategy) {
    case MaintainStrategy::kNoOp:
      stats.base = base_.Apply(delta);
      break;
    case MaintainStrategy::kFromScratch:
      stats.base = base_.Apply(delta);
      Refixpoint(&stats);
      break;
    case MaintainStrategy::kBoundedUcq:  // counting over the unfolding
    case MaintainStrategy::kCounting:
      stats.base = base_.Apply(delta);
      MaintainCounting(net, &stats);
      break;
    case MaintainStrategy::kDeltaInsert:
      stats.base = base_.Apply(delta);
      DeltaInsert(net.ins, &stats);
      break;
    case MaintainStrategy::kDRed:
      DRed(net, &stats);  // staged application: removals before inserts
      break;
  }
  // A "delta/apply" fault inside the base application dropped its cached
  // RelationIndex (blanket invalidation, lazy rebuild on next use).
  // Maintenance already ran — or will run — against the unindexed
  // fallback scans, so only cost changed; record it.
  if (stats.base.index_degraded) {
    stats.plan.degradations.push_back(DegradationEvent{
        DegradationKind::kIndexDeltaToRebuild, "delta/apply",
        "index maintenance fault: blanket invalidation, lazy rebuild"});
  }
  return stats;
}

void MaterializedView::Refixpoint(ViewMaintenanceStats* stats) {
  stats->recomputed = true;
  IdbInterpretation before = std::move(idb_);
  idb_.assign(before.size(), {});
  if (counting_state_) {
    FullCountingEval(&stats->derivations);
  } else {
    DatalogEvalOptions eval_options;
    eval_options.num_threads = options_.num_threads;
    DatalogResult result = EvaluateSemiNaive(program_, base_, eval_options);
    stats->derivations += result.derivations;
    stats->rounds = result.stages;
    idb_ = std::move(result.idb);
  }
  DiffStats(before, idb_, stats);
}

// Counting maintenance (non-recursive rule sets): for each rule and each
// body position i whose relation changed, add the signed staging term
//
//   join(new_1, ..., new_{i-1}, Δ±_i, old_{i+1}, ..., old_k)
//
// to the head's count updates. Summed over i this is exactly the change
// in derivation counts, for insertions and deletions alike; a count
// reaching zero deletes the fact, a count leaving zero inserts it, and
// the flips feed the Δ sets of downstream IDB relations.
void MaterializedView::MaintainCounting(const NetDelta& net,
                                        ViewMaintenanceStats* stats) {
  const size_t idb_count = idb_.size();
  const SourcePlan plan(program_, base_);
  Budget unlimited = Budget::Unlimited();
  std::vector<std::set<Tuple>> idb_ins(idb_count);
  std::vector<std::set<Tuple>> idb_rem(idb_count);

  const auto delta_sets = [&](const DatalogAtom& atom)
      -> std::pair<const std::set<Tuple>*, const std::set<Tuple>*> {
    if (const auto e = program_.Edb().IndexOf(atom.relation);
        e.has_value()) {
      return {&net.ins[static_cast<size_t>(*e)],
              &net.rem[static_cast<size_t>(*e)]};
    }
    const int q = program_.IdbIndex(atom.relation);
    return {&idb_ins[static_cast<size_t>(q)],
            &idb_rem[static_cast<size_t>(q)]};
  };

  for (int p : topo_) {
    std::map<Tuple, long long> delta_counts;
    for (size_t r = 0; r < Rules().size(); ++r) {
      if (rule_heads_[r] != p) continue;
      const DatalogRule& rule = Rules()[r];
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const auto [ins_i, rem_i] = delta_sets(rule.body[i]);
        const std::set<Tuple>* deltas[2] = {ins_i, rem_i};
        const long long weights[2] = {1, -1};
        for (int d = 0; d < 2; ++d) {
          if (deltas[d]->empty()) continue;
          std::vector<JoinSource> sources;
          for (size_t j = 0; j < rule.body.size(); ++j) {
            const DatalogAtom& atom = rule.body[j];
            JoinSource src = j == i ? SetSource(*deltas[d])
                                    : plan.Resolve(atom, idb_);
            if (j > i) {  // the old state: rewind the delta
              const auto [ins, rem] = delta_sets(atom);
              src = Rewound(src, *ins, *rem);
            }
            sources.push_back(src);
          }
          RuleJoin(compiled_[r].from_delta[i], sources, unlimited,
                   &stats->derivations)
              .CountInto(&delta_counts, weights[d]);
        }
      }
    }
    auto& counts = counts_[static_cast<size_t>(p)];
    auto& set = idb_[static_cast<size_t>(p)];
    for (const auto& [t, dc] : delta_counts) {
      if (dc == 0) continue;
      const auto it = counts.find(t);
      const long long before = it == counts.end() ? 0 : it->second;
      const long long after = before + dc;
      HOMPRES_CHECK_GE(after, 0);
      if (after == 0) {
        if (it != counts.end()) counts.erase(it);
        if (set.erase(t) != 0) {
          idb_rem[static_cast<size_t>(p)].insert(t);
          ++stats->idb_removed;
        }
      } else {
        if (it == counts.end()) {
          counts.emplace(t, after);
        } else {
          it->second = after;
        }
        if (before == 0 && set.insert(t).second) {
          idb_ins[static_cast<size_t>(p)].insert(t);
          ++stats->idb_inserted;
        }
      }
    }
  }
}

// Semi-naive frontier rounds over Rules(), every non-delta position
// reading the current state (base_ and idb_): the seed round joins each
// EDB body position against seeds[rel], each later round each IDB body
// position against the facts the round before admitted. `admit(p, t)`
// decides whether derived fact t of IDB p is new, recording it if so;
// idb_ must not change before the round's joins are done, so admission
// runs after them.
void MaterializedView::FrontierFixpoint(
    const std::vector<std::set<Tuple>>& seeds,
    const std::function<bool(size_t, const Tuple&)>& admit,
    ViewMaintenanceStats* stats) {
  const size_t idb_count = idb_.size();
  const SourcePlan plan(program_, base_);
  Budget unlimited = Budget::Unlimited();
  IdbInterpretation frontier(idb_count);
  bool any = true;
  for (bool seed = true; any; seed = false) {
    if (!seed) ++stats->rounds;
    IdbInterpretation derived(idb_count);
    for (size_t r = 0; r < Rules().size(); ++r) {
      const DatalogRule& rule = Rules()[r];
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const std::string& relation = rule.body[i].relation;
        const auto e = program_.Edb().IndexOf(relation);
        if (e.has_value() != seed) continue;
        const std::set<Tuple>& delta =
            seed ? seeds[static_cast<size_t>(*e)]
                 : frontier[static_cast<size_t>(
                       program_.IdbIndex(relation))];
        if (delta.empty()) continue;
        std::vector<JoinSource> sources;
        for (size_t j = 0; j < rule.body.size(); ++j) {
          sources.push_back(j == i ? SetSource(delta)
                                   : plan.Resolve(rule.body[j], idb_));
        }
        RuleJoin(compiled_[r].from_delta[i], sources, unlimited,
                 &stats->derivations)
            .DeriveInto(&derived[static_cast<size_t>(rule_heads_[r])]);
      }
    }
    any = false;
    for (size_t p = 0; p < idb_count; ++p) {
      frontier[p].clear();
      for (const Tuple& t : derived[p]) {
        if (admit(p, t)) {
          frontier[p].insert(t);
          any = true;
        }
      }
    }
  }
}

// Semi-naive maintenance under insertion, seeded by the inserted EDB
// tuples. Over-derivation of already-known facts is harmless under set
// semantics; completeness holds because every genuinely new derivation
// uses at least one delta fact at some position, and that position's job
// finds it the round after the fact appeared.
void MaterializedView::DeltaInsert(
    const std::vector<std::set<Tuple>>& edb_ins,
    ViewMaintenanceStats* stats) {
  FrontierFixpoint(
      edb_ins,
      [&](size_t p, const Tuple& t) {
        if (!idb_[p].insert(t).second) return false;
        ++stats->idb_inserted;
        return true;
      },
      stats);
}

// DRed (recursive programs with deletions), in stages:
//
//   1. element appends (cannot affect the IDB);
//   2. overdeletion fixpoint on the OLD state: everything with a
//      derivation through a removed fact, overapproximated;
//   3. the removals hit the base;
//   4. rederivation: overdeleted facts with a surviving derivation
//      (head-bound existence probes against the post-removal state,
//      repeated until closure — a rederived fact can support another);
//   5. the insertions hit the base, maintained by delta-insert.
void MaterializedView::DRed(const NetDelta& net,
                            ViewMaintenanceStats* stats) {
  const size_t idb_count = idb_.size();
  if (net.appends > 0) {
    StructureDelta appends;
    appends.AppendElements(net.appends);
    AccumulateBase(base_.Apply(appends), stats);
  }

  std::vector<std::set<Tuple>> overdeleted(idb_count);
  FrontierFixpoint(
      net.rem,
      [&](size_t p, const Tuple& t) {
        return idb_[p].count(t) != 0 && overdeleted[p].insert(t).second;
      },
      stats);
  for (size_t p = 0; p < idb_count; ++p) {
    for (const Tuple& t : overdeleted[p]) idb_[p].erase(t);
  }

  if (net.removed > 0) {
    StructureDelta removals;
    for (size_t rel = 0; rel < net.rem.size(); ++rel) {
      for (const Tuple& t : net.rem[rel]) {
        removals.RemoveTuple(static_cast<int>(rel), t);
      }
    }
    AccumulateBase(base_.Apply(removals), stats);
  }

  // Rederivation. idb_ currently excludes every overdeleted fact, so a
  // probe can only succeed through facts that are certainly alive or
  // already rederived — repeating until closure restores exactly the
  // still-derivable ones.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t p = 0; p < idb_count; ++p) {
      auto& dead = overdeleted[p];
      for (auto it = dead.begin(); it != dead.end();) {
        if (ExistsDerivation(static_cast<int>(p), *it,
                             &stats->derivations)) {
          idb_[p].insert(*it);
          it = dead.erase(it);
          ++stats->rederived;
          changed = true;
        } else {
          ++it;
        }
      }
    }
  }
  for (size_t p = 0; p < idb_count; ++p) {
    stats->idb_removed += static_cast<int>(overdeleted[p].size());
  }

  if (net.inserted > 0) {
    StructureDelta inserts;
    for (size_t rel = 0; rel < net.ins.size(); ++rel) {
      for (const Tuple& t : net.ins[rel]) {
        inserts.InsertTuple(static_cast<int>(rel), t);
      }
    }
    AccumulateBase(base_.Apply(inserts), stats);
    DeltaInsert(net.ins, stats);
  }
}

bool MaterializedView::ExistsDerivation(int idb_index, const Tuple& fact,
                                        long long* derivations) const {
  const SourcePlan plan(program_, base_);
  Budget unlimited = Budget::Unlimited();
  for (size_t r = 0; r < Rules().size(); ++r) {
    if (rule_heads_[r] != idb_index) continue;
    std::vector<JoinSource> sources;
    for (const DatalogAtom& atom : Rules()[r].body) {
      sources.push_back(plan.Resolve(atom, idb_));
    }
    if (RuleJoin(compiled_[r].head_bound, sources, unlimited, derivations)
            .Exists(fact)) {
      return true;
    }
  }
  return false;
}

}  // namespace hompres
