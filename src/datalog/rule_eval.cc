#include "datalog/rule_eval.h"

#include <map>
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

}  // namespace hompres
