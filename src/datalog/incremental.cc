#include "datalog/incremental.h"

#include <algorithm>
#include <deque>
#include <span>
#include <string>
#include <utility>

#include "base/budget.h"
#include "base/check.h"
#include "base/failpoint.h"
#include "datalog/stages.h"
#include "opt/optimizer.h"
#include "structure/relation_index.h"

namespace hompres {

namespace {

// --- Adjusted tuple sources ---------------------------------------------

// One tuple store a body atom joins against during maintenance: a tuple
// set (IDB interpretations, delta sets) or a sorted EDB vector with an
// optional RelationIndex accelerator. The effective store is
// (primary - minus) + plus, with plus disjoint from primary — which
// rewinds a post-delta store to its pre-delta value (or narrows it)
// without materializing a copy.
struct Src {
  const std::set<Tuple>* set = nullptr;
  const std::vector<Tuple>* vec = nullptr;
  const RelationIndex* index = nullptr;  // may be null even with vec
  int rel = -1;
  const std::set<Tuple>* minus = nullptr;
  const std::set<Tuple>* plus = nullptr;
};

Src EdbSrc(const Structure& base, int rel, const RelationIndex* index,
           const std::set<Tuple>* minus = nullptr,
           const std::set<Tuple>* plus = nullptr) {
  Src s;
  s.vec = &base.Tuples(rel);
  s.index = index;
  s.rel = rel;
  s.minus = minus;
  s.plus = plus;
  return s;
}

Src SetSrc(const std::set<Tuple>& set,
           const std::set<Tuple>* minus = nullptr,
           const std::set<Tuple>* plus = nullptr) {
  Src s;
  s.set = &set;
  s.minus = minus;
  s.plus = plus;
  return s;
}

// The maintenance join: the compiled enumeration of datalog/eval.cc
// extended with adjusted sources and three output modes — derive heads
// into a set, accumulate signed derivation counts (the counting
// strategy's inclusion-exclusion terms), or probe whether one pre-bound
// head has any derivation (DRed rederivation, early exit at the first
// witness). Unbudgeted: maintenance work is measured, not limited. Each
// satisfying combination of source tuples is visited exactly once, so
// CountInto's per-head totals are exact derivation counts under any atom
// order; callers pick the order that starts where the join is narrowest
// (MaintenanceOrders: the delta position, or the pre-bound head).
class DeltaJoin {
 public:
  DeltaJoin(const CompiledRule& rule, const std::vector<Src>& sources,
            long long* derivations)
      : rule_(rule), sources_(sources), derivations_(derivations) {
    binding_.assign(static_cast<size_t>(rule_.num_slots), -1);
    added_.resize(rule_.atoms.size());
    for (size_t i = 0; i < rule_.atoms.size(); ++i) {
      added_[i].reserve(rule_.atoms[i].slots.size());
    }
  }

  void DeriveInto(std::set<Tuple>* out) {
    out_ = out;
    Join(0);
  }

  void CountInto(std::map<Tuple, long long>* counts, long long weight) {
    counts_ = counts;
    weight_ = weight;
    Join(0);
  }

  // True iff some body assignment derives exactly `head`.
  bool Exists(const Tuple& head) {
    HOMPRES_CHECK_EQ(head.size(), rule_.head_slots.size());
    exists_ = true;
    for (size_t j = 0; j < head.size(); ++j) {
      const size_t s = static_cast<size_t>(rule_.head_slots[j]);
      // A repeated head variable bound to two different values cannot
      // be produced by this rule at all.
      if (binding_[s] != -1 && binding_[s] != head[j]) return false;
      binding_[s] = head[j];
    }
    Join(0);
    return found_;
  }

 private:
  bool Emit() {
    if (exists_) {
      found_ = true;
      return false;  // unwind: one witness is enough
    }
    Tuple head;
    head.reserve(rule_.head_slots.size());
    for (int s : rule_.head_slots) {
      head.push_back(binding_[static_cast<size_t>(s)]);
    }
    if (counts_ != nullptr) {
      (*counts_)[std::move(head)] += weight_;
    } else {
      out_->insert(std::move(head));
    }
    return true;
  }

  bool Visit(size_t idx, const Tuple& t) {
    ++*derivations_;
    const CompiledAtom& atom = rule_.atoms[idx];
    bool consistent = true;
    std::vector<int>& added = added_[idx];
    added.clear();
    for (size_t j = 0; j < atom.slots.size(); ++j) {
      const size_t s = static_cast<size_t>(atom.slots[j]);
      if (binding_[s] == -1) {
        binding_[s] = t[j];
        added.push_back(static_cast<int>(s));
      } else if (binding_[s] != t[j]) {
        consistent = false;
        break;
      }
    }
    if (consistent) {
      for (const auto& [l, r] : rule_.ineqs_after[idx]) {
        if (binding_[static_cast<size_t>(l)] ==
            binding_[static_cast<size_t>(r)]) {
          consistent = false;
          break;
        }
      }
    }
    bool ok = true;
    if (consistent) ok = Join(idx + 1);
    for (int s : added) binding_[static_cast<size_t>(s)] = -1;
    return ok;
  }

  bool ScanSet(size_t idx, const std::set<Tuple>& store, const Tuple& prefix,
               const std::set<Tuple>* minus) {
    auto it = prefix.empty() ? store.begin() : store.lower_bound(prefix);
    for (; it != store.end(); ++it) {
      if (!prefix.empty() &&
          !std::equal(prefix.begin(), prefix.end(), it->begin())) {
        break;
      }
      if (minus != nullptr && minus->count(*it) != 0) continue;
      if (!Visit(idx, *it)) return false;
    }
    return true;
  }

  bool ScanVec(size_t idx, const Src& src, const Tuple& prefix,
               const std::vector<int>& slots) {
    const std::vector<Tuple>& tuples = *src.vec;
    const auto visit_id = [&](int id) {
      const Tuple& t = tuples[static_cast<size_t>(id)];
      if (src.minus != nullptr && src.minus->count(t) != 0) return true;
      return Visit(idx, t);
    };
    if (src.index != nullptr) {
      const auto [lo, hi] = src.index->PrefixRange(src.rel, prefix);
      std::span<const int> ids;
      bool use_ids = false;
      size_t best = static_cast<size_t>(hi - lo);
      for (size_t j = prefix.size(); j < slots.size(); ++j) {
        const int v = binding_[static_cast<size_t>(slots[j])];
        if (v < 0) continue;
        const auto list =
            src.index->TuplesAt(src.rel, static_cast<int>(j), v);
        if (list.size() < best) {
          best = list.size();
          ids = list;
          use_ids = true;
        }
      }
      if (use_ids) {
        for (int id : ids) {
          if (!visit_id(id)) return false;
        }
      } else {
        for (int id = lo; id < hi; ++id) {
          if (!visit_id(id)) return false;
        }
      }
      return true;
    }
    // No index: manual bound-prefix range over the sorted vector.
    auto it = prefix.empty()
                  ? tuples.begin()
                  : std::lower_bound(tuples.begin(), tuples.end(), prefix);
    for (; it != tuples.end(); ++it) {
      if (!prefix.empty() &&
          !std::equal(prefix.begin(), prefix.end(), it->begin())) {
        break;
      }
      if (src.minus != nullptr && src.minus->count(*it) != 0) continue;
      if (!Visit(idx, *it)) return false;
    }
    return true;
  }

  bool Join(size_t idx) {
    if (idx == rule_.atoms.size()) return Emit();
    const CompiledAtom& atom = rule_.atoms[idx];
    const Src& src = sources_[static_cast<size_t>(atom.body_pos)];
    Tuple prefix;
    for (size_t j = 0; j < atom.slots.size(); ++j) {
      const int v = binding_[static_cast<size_t>(atom.slots[j])];
      if (v < 0) break;
      prefix.push_back(v);
    }
    if (src.set != nullptr) {
      if (!ScanSet(idx, *src.set, prefix, src.minus)) return false;
    } else {
      if (!ScanVec(idx, src, prefix, atom.slots)) return false;
    }
    if (src.plus != nullptr) {
      if (!ScanSet(idx, *src.plus, prefix, nullptr)) return false;
    }
    return true;
  }

  const CompiledRule& rule_;
  const std::vector<Src>& sources_;
  long long* derivations_;
  std::set<Tuple>* out_ = nullptr;
  std::map<Tuple, long long>* counts_ = nullptr;
  long long weight_ = 1;
  bool exists_ = false;
  bool found_ = false;
  std::vector<int> binding_;
  std::vector<std::vector<int>> added_;  // per-depth unbind scratch
};

// IDB dependency order: edge q -> p when a rule with head p reads q in
// its body. Kahn's algorithm; false (and an unspecified partial order)
// when the graph has a cycle — the program is recursive.
bool TopoOrderIdb(const DatalogProgram& program, std::vector<int>* order) {
  const int n = program.Idb().NumRelations();
  std::vector<std::set<int>> succs(static_cast<size_t>(n));
  std::vector<int> indegree(static_cast<size_t>(n), 0);
  for (const DatalogRule& rule : program.Rules()) {
    const int p = *program.IdbIndexOf(rule.head.relation);
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
    rule_heads_.push_back(*program_.IdbIndexOf(rule.head.relation));
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
  const RelationIndex* index = base_.TryIndex();
  for (auto& counts : counts_) counts.clear();
  for (auto& set : idb_) set.clear();
  for (int p : topo_) {
    for (size_t r = 0; r < Rules().size(); ++r) {
      if (rule_heads_[r] != p) continue;
      const DatalogRule& rule = Rules()[r];
      std::vector<Src> sources;
      sources.reserve(rule.body.size());
      for (const DatalogAtom& atom : rule.body) {
        if (const auto e = program_.Edb().IndexOf(atom.relation);
            e.has_value()) {
          sources.push_back(EdbSrc(base_, *e, index));
        } else {
          sources.push_back(SetSrc(
              idb_[static_cast<size_t>(*program_.IdbIndexOf(atom.relation))]));
        }
      }
      DeltaJoin(compiled_[r].full, sources, derivations)
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
  const RelationIndex* index = base_.TryIndex();
  std::vector<std::set<Tuple>> idb_ins(idb_count), idb_rem(idb_count);

  const auto delta_sets = [&](const DatalogAtom& atom)
      -> std::pair<const std::set<Tuple>*, const std::set<Tuple>*> {
    if (const auto e = program_.Edb().IndexOf(atom.relation);
        e.has_value()) {
      return {&net.ins[static_cast<size_t>(*e)],
              &net.rem[static_cast<size_t>(*e)]};
    }
    const int q = *program_.IdbIndexOf(atom.relation);
    return {&idb_ins[static_cast<size_t>(q)],
            &idb_rem[static_cast<size_t>(q)]};
  };
  const auto new_src = [&](const DatalogAtom& atom) -> Src {
    if (const auto e = program_.Edb().IndexOf(atom.relation);
        e.has_value()) {
      return EdbSrc(base_, *e, index);
    }
    return SetSrc(
        idb_[static_cast<size_t>(*program_.IdbIndexOf(atom.relation))]);
  };
  const auto old_src = [&](const DatalogAtom& atom) -> Src {
    // Rewind the post-delta store: hide what the delta inserted, re-add
    // what it removed.
    const auto [ins, rem] = delta_sets(atom);
    const std::set<Tuple>* minus = ins->empty() ? nullptr : ins;
    const std::set<Tuple>* plus = rem->empty() ? nullptr : rem;
    if (const auto e = program_.Edb().IndexOf(atom.relation);
        e.has_value()) {
      return EdbSrc(base_, *e, index, minus, plus);
    }
    return SetSrc(
        idb_[static_cast<size_t>(*program_.IdbIndexOf(atom.relation))],
        minus, plus);
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
          std::vector<Src> sources;
          sources.reserve(rule.body.size());
          for (size_t j = 0; j < rule.body.size(); ++j) {
            if (j < i) {
              sources.push_back(new_src(rule.body[j]));
            } else if (j == i) {
              sources.push_back(SetSrc(*deltas[d]));
            } else {
              sources.push_back(old_src(rule.body[j]));
            }
          }
          DeltaJoin(compiled_[r].from_delta[i], sources,
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

// Semi-naive maintenance under insertion: rounds seeded by the inserted
// EDB tuples, every non-delta position reading the full current state.
// Over-derivation of already-known facts is harmless under set
// semantics; completeness holds because every genuinely new derivation
// uses at least one delta fact at some position, and that position's job
// finds it the round after the fact appeared.
void MaterializedView::DeltaInsert(
    const std::vector<std::set<Tuple>>& edb_ins,
    ViewMaintenanceStats* stats) {
  const size_t idb_count = idb_.size();
  const RelationIndex* index = base_.TryIndex();
  const auto full_src = [&](const DatalogAtom& atom) -> Src {
    if (const auto e = program_.Edb().IndexOf(atom.relation);
        e.has_value()) {
      return EdbSrc(base_, *e, index);
    }
    return SetSrc(
        idb_[static_cast<size_t>(*program_.IdbIndexOf(atom.relation))]);
  };
  const auto run = [&](size_t r, size_t delta_pos,
                       const std::set<Tuple>& dset,
                       IdbInterpretation* out) {
    const DatalogRule& rule = Rules()[r];
    std::vector<Src> sources;
    sources.reserve(rule.body.size());
    for (size_t j = 0; j < rule.body.size(); ++j) {
      sources.push_back(j == delta_pos ? SetSrc(dset)
                                       : full_src(rule.body[j]));
    }
    DeltaJoin(compiled_[r].from_delta[delta_pos], sources,
              &stats->derivations)
        .DeriveInto(&(*out)[static_cast<size_t>(rule_heads_[r])]);
  };

  IdbInterpretation delta(idb_count);
  bool any = false;
  const auto absorb = [&](const IdbInterpretation& derived) {
    any = false;
    for (size_t p = 0; p < idb_count; ++p) {
      delta[p].clear();
      for (const Tuple& t : derived[p]) {
        if (idb_[p].insert(t).second) {
          delta[p].insert(t);
          ++stats->idb_inserted;
          any = true;
        }
      }
    }
  };

  // Seed round: the inserted tuples at each matching body position.
  IdbInterpretation seeded(idb_count);
  for (size_t r = 0; r < Rules().size(); ++r) {
    const DatalogRule& rule = Rules()[r];
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const auto e = program_.Edb().IndexOf(rule.body[i].relation);
      if (!e.has_value()) continue;
      const auto& inserted = edb_ins[static_cast<size_t>(*e)];
      if (inserted.empty()) continue;
      run(r, i, inserted, &seeded);
    }
  }
  absorb(seeded);
  while (any) {
    ++stats->rounds;
    IdbInterpretation derived(idb_count);
    for (size_t r = 0; r < Rules().size(); ++r) {
      const DatalogRule& rule = Rules()[r];
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const auto q = program_.IdbIndexOf(rule.body[i].relation);
        if (!q.has_value()) continue;
        const auto& frontier = delta[static_cast<size_t>(*q)];
        if (frontier.empty()) continue;
        run(r, i, frontier, &derived);
      }
    }
    absorb(derived);
  }
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
  {
    const RelationIndex* index = base_.TryIndex();
    const auto old_src = [&](const DatalogAtom& atom) -> Src {
      if (const auto e = program_.Edb().IndexOf(atom.relation);
          e.has_value()) {
        return EdbSrc(base_, *e, index);
      }
      return SetSrc(
          idb_[static_cast<size_t>(*program_.IdbIndexOf(atom.relation))]);
    };
    const auto run = [&](size_t r, size_t delta_pos,
                         const std::set<Tuple>& dset,
                         IdbInterpretation* out) {
      const DatalogRule& rule = Rules()[r];
      std::vector<Src> sources;
      sources.reserve(rule.body.size());
      for (size_t j = 0; j < rule.body.size(); ++j) {
        sources.push_back(j == delta_pos ? SetSrc(dset)
                                         : old_src(rule.body[j]));
      }
      DeltaJoin(compiled_[r].from_delta[delta_pos], sources,
                &stats->derivations)
          .DeriveInto(&(*out)[static_cast<size_t>(rule_heads_[r])]);
    };

    std::vector<std::set<Tuple>> frontier(idb_count);
    bool any = false;
    const auto absorb = [&](const IdbInterpretation& derived) {
      any = false;
      for (size_t p = 0; p < idb_count; ++p) {
        frontier[p].clear();
        for (const Tuple& t : derived[p]) {
          if (idb_[p].count(t) != 0 && overdeleted[p].insert(t).second) {
            frontier[p].insert(t);
            any = true;
          }
        }
      }
    };

    IdbInterpretation seeded(idb_count);
    for (size_t r = 0; r < Rules().size(); ++r) {
      const DatalogRule& rule = Rules()[r];
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const auto e = program_.Edb().IndexOf(rule.body[i].relation);
        if (!e.has_value()) continue;
        const auto& removed = net.rem[static_cast<size_t>(*e)];
        if (removed.empty()) continue;
        run(r, i, removed, &seeded);
      }
    }
    absorb(seeded);
    while (any) {
      ++stats->rounds;
      IdbInterpretation derived(idb_count);
      for (size_t r = 0; r < Rules().size(); ++r) {
        const DatalogRule& rule = Rules()[r];
        for (size_t i = 0; i < rule.body.size(); ++i) {
          const auto q = program_.IdbIndexOf(rule.body[i].relation);
          if (!q.has_value()) continue;
          const auto& front = frontier[static_cast<size_t>(*q)];
          if (front.empty()) continue;
          run(r, i, front, &derived);
        }
      }
      absorb(derived);
    }
    for (size_t p = 0; p < idb_count; ++p) {
      for (const Tuple& t : overdeleted[p]) idb_[p].erase(t);
    }
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
  const RelationIndex* index = base_.TryIndex();
  for (size_t r = 0; r < Rules().size(); ++r) {
    if (rule_heads_[r] != idb_index) continue;
    const DatalogRule& rule = Rules()[r];
    std::vector<Src> sources;
    sources.reserve(rule.body.size());
    for (const DatalogAtom& atom : rule.body) {
      if (const auto e = program_.Edb().IndexOf(atom.relation);
          e.has_value()) {
        sources.push_back(EdbSrc(base_, *e, index));
      } else {
        sources.push_back(SetSrc(
            idb_[static_cast<size_t>(*program_.IdbIndexOf(atom.relation))]));
      }
    }
    if (DeltaJoin(compiled_[r].head_bound, sources, derivations)
            .Exists(fact)) {
      return true;
    }
  }
  return false;
}

}  // namespace hompres
