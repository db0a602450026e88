#include "datalog/rule_eval.h"

#include <algorithm>
#include <span>
#include <string>

#include "base/check.h"
#include "engine/ordering.h"

namespace hompres {

namespace {

// Compiles `rule` with body atom `first_atom` (when >= 0) joining first
// and, when `head_bound`, the head's slots counted as bound up front.
CompiledRule Compile(const DatalogRule& rule, int first_atom,
                     bool head_bound) {
  CompiledRule cr;
  std::map<std::string, int> slot_of;
  const auto slot = [&slot_of](const std::string& v) {
    const auto [it, inserted] =
        slot_of.try_emplace(v, static_cast<int>(slot_of.size()));
    return it->second;
  };
  std::vector<std::vector<int>> atom_slots;
  atom_slots.reserve(rule.body.size());
  for (const DatalogAtom& atom : rule.body) {
    std::vector<int> slots;
    slots.reserve(atom.arguments.size());
    for (const auto& v : atom.arguments) slots.push_back(slot(v));
    atom_slots.push_back(std::move(slots));
  }
  cr.num_slots = static_cast<int>(slot_of.size());
  cr.head_slots.reserve(rule.head.arguments.size());
  for (const auto& v : rule.head.arguments) {
    const auto it = slot_of.find(v);
    HOMPRES_CHECK(it != slot_of.end());  // safety: head vars occur in body
    cr.head_slots.push_back(it->second);
  }
  const size_t n = rule.body.size();
  AtomOrderSeed order_seed;
  order_seed.first_atom = first_atom;
  if (head_bound) order_seed.bound_slots = cr.head_slots;
  // Join order: most-bound-slots-first greedy (engine/ordering.h), the
  // same statistics-driven policy the hom engine's planner uses.
  for (int i :
       GreedyBoundFirstAtomOrder(atom_slots, cr.num_slots, order_seed)) {
    cr.atoms.push_back(CompiledAtom{i, atom_slots[static_cast<size_t>(i)]});
  }
  cr.ineqs_after.assign(n, {});
  std::vector<bool> bound(static_cast<size_t>(cr.num_slots), false);
  for (int s : order_seed.bound_slots) bound[static_cast<size_t>(s)] = true;
  std::vector<std::pair<int, int>> pending;
  for (const auto& [left, right] : rule.inequalities) {
    const auto l = slot_of.find(left);
    const auto r = slot_of.find(right);
    HOMPRES_CHECK(l != slot_of.end());
    HOMPRES_CHECK(r != slot_of.end());
    pending.emplace_back(l->second, r->second);
  }
  for (size_t i = 0; i < cr.atoms.size(); ++i) {
    for (int s : cr.atoms[i].slots) bound[static_cast<size_t>(s)] = true;
    for (auto it = pending.begin(); it != pending.end();) {
      if (bound[static_cast<size_t>(it->first)] &&
          bound[static_cast<size_t>(it->second)]) {
        cr.ineqs_after[i].push_back(*it);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
  }
  HOMPRES_CHECK(pending.empty());  // every ineq var occurs in the body
  return cr;
}

}  // namespace

CompiledRule CompileRule(const DatalogRule& rule) {
  return Compile(rule, /*first_atom=*/-1, /*head_bound=*/false);
}

MaintenanceOrders CompileMaintenanceOrders(const DatalogRule& rule) {
  MaintenanceOrders orders;
  orders.full = CompileRule(rule);
  orders.from_delta.reserve(rule.body.size());
  for (size_t i = 0; i < rule.body.size(); ++i) {
    orders.from_delta.push_back(
        Compile(rule, static_cast<int>(i), /*head_bound=*/false));
  }
  orders.head_bound = Compile(rule, /*first_atom=*/-1, /*head_bound=*/true);
  return orders;
}

std::vector<CompiledRule> CompileProgram(const DatalogProgram& program) {
  std::vector<CompiledRule> compiled;
  compiled.reserve(program.Rules().size());
  for (const DatalogRule& rule : program.Rules()) {
    compiled.push_back(CompileRule(rule));
  }
  return compiled;
}

JoinSource SetSource(const std::set<Tuple>& set) {
  JoinSource s;
  s.set = &set;
  return s;
}

JoinSource Rewound(JoinSource source, const std::set<Tuple>& ins,
                   const std::set<Tuple>& rem) {
  // Hide what the delta inserted, re-add what it removed.
  if (!ins.empty()) source.minus = &ins;
  if (!rem.empty()) source.plus = &rem;
  return source;
}

SourcePlan::SourcePlan(const DatalogProgram& program, const Structure& edb)
    : program_(program), edb_(edb), index_(edb.TryIndex()) {}

JoinSource SourcePlan::Resolve(
    const DatalogAtom& atom, const std::vector<std::set<Tuple>>& idb) const {
  const auto rel = program_.Edb().IndexOf(atom.relation);
  if (!rel.has_value()) {
    return SetSource(
        idb[static_cast<size_t>(program_.IdbIndex(atom.relation))]);
  }
  JoinSource s;
  s.vec = &edb_.Tuples(*rel);
  s.index = index_;
  s.rel = *rel;
  return s;
}

RuleJoin::RuleJoin(const CompiledRule& rule,
                   const std::vector<JoinSource>& sources, Budget& budget,
                   long long* derivations)
    : rule_(rule),
      sources_(sources),
      budget_(budget),
      derivations_(derivations) {
  binding_.assign(static_cast<size_t>(rule_.num_slots), -1);
  added_.resize(rule_.atoms.size());
  prefix_.resize(rule_.atoms.size());
  for (size_t i = 0; i < rule_.atoms.size(); ++i) {
    added_[i].reserve(rule_.atoms[i].slots.size());
    prefix_[i].reserve(rule_.atoms[i].slots.size());
  }
}

bool RuleJoin::DeriveInto(std::set<Tuple>* out) {
  out_ = out;
  return Join(0);
}

bool RuleJoin::CountInto(std::map<Tuple, long long>* counts,
                         long long weight) {
  counts_ = counts;
  weight_ = weight;
  return Join(0);
}

bool RuleJoin::Exists(const Tuple& head) {
  HOMPRES_CHECK_EQ(head.size(), rule_.head_slots.size());
  exists_ = true;
  for (size_t j = 0; j < head.size(); ++j) {
    const size_t s = static_cast<size_t>(rule_.head_slots[j]);
    // A repeated head variable bound to two different values cannot be
    // produced by this rule at all.
    if (binding_[s] != -1 && binding_[s] != head[j]) return false;
    binding_[s] = head[j];
  }
  Join(0);
  return found_;
}

bool RuleJoin::Emit() {
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

bool RuleJoin::Visit(size_t idx, const Tuple& t) {
  if (!budget_.Checkpoint()) return false;
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
    // Eager inequality pruning: both sides are bound from this atom on.
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

bool RuleJoin::ScanSet(size_t idx, const std::set<Tuple>& store,
                       const Tuple& prefix, const std::set<Tuple>* minus) {
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

bool RuleJoin::ScanVec(size_t idx, const JoinSource& src,
                       const Tuple& prefix) {
  const std::vector<Tuple>& tuples = *src.vec;
  const auto visit_id = [&](int id) {
    const Tuple& t = tuples[static_cast<size_t>(id)];
    if (src.minus != nullptr && src.minus->count(t) != 0) return true;
    return Visit(idx, t);
  };
  if (src.index != nullptr) {
    // The longest bound prefix as a range, or the shortest inverted list
    // of a bound position after it, whichever is smaller.
    const auto [lo, hi] = src.index->PrefixRange(src.rel, prefix);
    const std::vector<int>& slots = rule_.atoms[idx].slots;
    std::span<const int> ids;
    bool use_ids = false;
    size_t best = static_cast<size_t>(hi - lo);
    for (size_t j = prefix.size(); j < slots.size(); ++j) {
      const int v = binding_[static_cast<size_t>(slots[j])];
      if (v < 0) continue;
      const auto list = src.index->TuplesAt(src.rel, static_cast<int>(j), v);
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
  // No index: bound-prefix range over the sorted vector.
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

bool RuleJoin::Join(size_t idx) {
  if (idx == rule_.atoms.size()) return Emit();
  const CompiledAtom& atom = rule_.atoms[idx];
  const JoinSource& src = sources_[static_cast<size_t>(atom.body_pos)];
  Tuple& prefix = prefix_[idx];
  prefix.clear();
  for (int s : atom.slots) {
    const int v = binding_[static_cast<size_t>(s)];
    if (v < 0) break;
    prefix.push_back(v);
  }
  if (src.set != nullptr) {
    if (!ScanSet(idx, *src.set, prefix, src.minus)) return false;
  } else {
    if (!ScanVec(idx, src, prefix)) return false;
  }
  if (src.plus != nullptr) {
    if (!ScanSet(idx, *src.plus, prefix, nullptr)) return false;
  }
  return true;
}

}  // namespace hompres
