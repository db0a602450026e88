#include "datalog_scan_oracle.h"

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "base/check.h"

namespace hompres {

namespace {

// Enumerates all assignments satisfying the rule body and emits head
// tuples into `out`. For each body atom, `sources` gives the tuple set to
// match it against. Adds the number of assignments enumerated to
// `*derivations`; each assignment is one budget step. Returns false iff
// the budget stopped the enumeration (out may hold a partial result).
bool ApplyRuleScan(const DatalogRule& rule,
                   const std::vector<const std::set<Tuple>*>& sources,
                   Budget& budget, long long* derivations,
                   std::set<Tuple>* out) {
  std::map<std::string, int> binding;
  bool stopped = false;
  // Recursive join over the body atoms.
  std::function<void(size_t)> join = [&](size_t index) {
    if (stopped) return;
    if (index == rule.body.size()) {
      for (const auto& [left, right] : rule.inequalities) {
        if (binding.at(left) == binding.at(right)) return;
      }
      Tuple head;
      head.reserve(rule.head.arguments.size());
      for (const auto& v : rule.head.arguments) {
        head.push_back(binding.at(v));
      }
      out->insert(std::move(head));
      return;
    }
    const DatalogAtom& atom = rule.body[index];
    for (const Tuple& t : *sources[index]) {
      if (!budget.Checkpoint()) {
        stopped = true;
        return;
      }
      ++*derivations;
      // Try to unify the atom's arguments with t.
      std::vector<std::pair<std::string, int>> added;
      bool consistent = true;
      for (size_t i = 0; i < atom.arguments.size() && consistent; ++i) {
        const std::string& v = atom.arguments[i];
        auto it = binding.find(v);
        if (it == binding.end()) {
          binding[v] = t[i];
          added.emplace_back(v, t[i]);
        } else if (it->second != t[i]) {
          consistent = false;
        }
      }
      if (consistent) join(index + 1);
      for (const auto& [v, unused] : added) {
        (void)unused;
        binding.erase(v);
      }
      if (stopped) return;
    }
  };
  join(0);
  return !stopped;
}

// Tuple sets of the EDB relations of `edb`, copied once per evaluation.
std::vector<std::set<Tuple>> EdbSets(const DatalogProgram& program,
                                     const Structure& edb) {
  std::vector<std::set<Tuple>> sets(
      static_cast<size_t>(program.Edb().NumRelations()));
  for (int rel = 0; rel < program.Edb().NumRelations(); ++rel) {
    for (const Tuple& t : edb.Tuples(rel)) {
      sets[static_cast<size_t>(rel)].insert(t);
    }
  }
  return sets;
}

// Resolves body atoms to the EDB copies or to an IDB interpretation.
class ScanSources {
 public:
  ScanSources(const DatalogProgram& program, const Structure& edb)
      : program_(program), edb_sets_(EdbSets(program, edb)) {
    HOMPRES_CHECK(program.Edb() == edb.GetVocabulary());
  }

  const std::set<Tuple>* Resolve(const DatalogAtom& atom,
                                 const IdbInterpretation& idb) const {
    if (const auto e = program_.Edb().IndexOf(atom.relation);
        e.has_value()) {
      return &edb_sets_[static_cast<size_t>(*e)];
    }
    return &idb[static_cast<size_t>(*program_.IdbIndexOf(atom.relation))];
  }

  // Applies every rule to `current`, heads into a fresh interpretation.
  IdbInterpretation Apply(const IdbInterpretation& current,
                          long long* derivations) const {
    Budget unlimited = Budget::Unlimited();
    IdbInterpretation next(
        static_cast<size_t>(program_.Idb().NumRelations()));
    for (const DatalogRule& rule : program_.Rules()) {
      std::vector<const std::set<Tuple>*> sources;
      for (const DatalogAtom& atom : rule.body) {
        sources.push_back(Resolve(atom, current));
      }
      ApplyRuleScan(rule, sources, unlimited, derivations,
                    &next[static_cast<size_t>(
                        *program_.IdbIndexOf(rule.head.relation))]);
    }
    return next;
  }

 private:
  const DatalogProgram& program_;
  std::vector<std::set<Tuple>> edb_sets_;
};

}  // namespace

IdbInterpretation ScanStage(const DatalogProgram& program,
                            const Structure& edb, int m) {
  HOMPRES_CHECK_GE(m, 0);
  const ScanSources sources(program, edb);
  IdbInterpretation current(
      static_cast<size_t>(program.Idb().NumRelations()));
  long long derivations = 0;
  for (int step = 0; step < m; ++step) {
    current = sources.Apply(current, &derivations);
  }
  return current;
}

DatalogResult ScanEvaluateNaive(const DatalogProgram& program,
                                const Structure& edb) {
  const ScanSources sources(program, edb);
  DatalogResult result;
  result.idb.assign(static_cast<size_t>(program.Idb().NumRelations()), {});
  for (;;) {
    IdbInterpretation next = sources.Apply(result.idb, &result.derivations);
    if (next == result.idb) break;
    result.idb = std::move(next);
    ++result.stages;
  }
  return result;
}

DatalogResult ScanEvaluateSemiNaive(const DatalogProgram& program,
                                    const Structure& edb) {
  const ScanSources sources(program, edb);
  const size_t idb_count =
      static_cast<size_t>(program.Idb().NumRelations());
  Budget unlimited = Budget::Unlimited();
  DatalogResult result;
  result.idb.assign(idb_count, {});

  // Round 1: plain application against the empty IDB (fires the EDB-only
  // rules).
  IdbInterpretation delta(idb_count);
  for (const DatalogRule& rule : program.Rules()) {
    bool has_idb_atom = false;
    for (const DatalogAtom& atom : rule.body) {
      has_idb_atom |= program.IdbIndexOf(atom.relation).has_value();
    }
    if (has_idb_atom) continue;  // needs IDB facts; none yet
    std::vector<const std::set<Tuple>*> rule_sources;
    for (const DatalogAtom& atom : rule.body) {
      rule_sources.push_back(sources.Resolve(atom, result.idb));
    }
    ApplyRuleScan(rule, rule_sources, unlimited, &result.derivations,
                  &delta[static_cast<size_t>(
                      *program.IdbIndexOf(rule.head.relation))]);
  }

  bool any_delta = false;
  for (const auto& d : delta) any_delta |= !d.empty();
  while (any_delta) {
    ++result.stages;
    for (size_t i = 0; i < idb_count; ++i) {
      result.idb[i].insert(delta[i].begin(), delta[i].end());
    }
    // For each rule and each IDB body position, evaluate with that
    // position restricted to the current delta.
    IdbInterpretation derived(idb_count);
    for (const DatalogRule& rule : program.Rules()) {
      const int head = *program.IdbIndexOf(rule.head.relation);
      for (size_t delta_position = 0; delta_position < rule.body.size();
           ++delta_position) {
        const auto idb_index =
            program.IdbIndexOf(rule.body[delta_position].relation);
        if (!idb_index.has_value()) continue;
        std::vector<const std::set<Tuple>*> rule_sources;
        for (size_t i = 0; i < rule.body.size(); ++i) {
          rule_sources.push_back(
              i == delta_position
                  ? &delta[static_cast<size_t>(*idb_index)]
                  : sources.Resolve(rule.body[i], result.idb));
        }
        ApplyRuleScan(rule, rule_sources, unlimited, &result.derivations,
                      &derived[static_cast<size_t>(head)]);
      }
    }
    // New facts only.
    IdbInterpretation next_delta(idb_count);
    any_delta = false;
    for (size_t i = 0; i < idb_count; ++i) {
      for (const Tuple& t : derived[i]) {
        if (result.idb[i].count(t) == 0) {
          next_delta[i].insert(t);
          any_delta = true;
        }
      }
    }
    delta = std::move(next_delta);
  }
  return result;
}

}  // namespace hompres
