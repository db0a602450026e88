#include "fo/eval.h"

#include <algorithm>

#include "base/check.h"

namespace hompres {

CompiledSentence::CompiledSentence(const FormulaPtr& f,
                                   const Vocabulary& vocabulary,
                                   const Environment& env)
    : num_relations_(vocabulary.NumRelations()) {
  Scope scope;
  Scope free;
  root_ = Compile(f, vocabulary, env, scope, free);
}

int CompiledSentence::Compile(const FormulaPtr& f,
                              const Vocabulary& vocabulary,
                              const Environment& env, Scope& scope,
                              Scope& free) {
  // The slot a variable occurrence reads: the innermost enclosing
  // quantifier binding it, else its free-variable slot.
  const auto slot_of = [&](const std::string& name) {
    for (auto it = scope.rbegin(); it != scope.rend(); ++it) {
      if (*it->first == name) return it->second;
    }
    for (const auto& [bound, slot] : free) {
      if (*bound == name) return slot;
    }
    const auto value = env.find(name);
    const bool free_variable_bound = value != env.end();
    HOMPRES_CHECK(free_variable_bound);
    const int slot = static_cast<int>(initial_slots_.size());
    initial_slots_.push_back(value->second);
    free.emplace_back(&value->first, slot);
    return slot;
  };

  Node node{.kind = f->Kind()};
  switch (f->Kind()) {
    case FormulaKind::kAtom: {
      const auto rel = vocabulary.IndexOf(f->Relation());
      HOMPRES_CHECK(rel.has_value());
      const int arity = static_cast<int>(f->Variables().size());
      HOMPRES_CHECK_EQ(vocabulary.Arity(*rel), arity);
      node.relation = *rel;
      max_arity_ = std::max(max_arity_, arity);
      [[fallthrough]];
    }
    case FormulaKind::kEqual:
      node.begin = static_cast<int>(arguments_.size());
      for (const std::string& v : f->Variables()) {
        arguments_.push_back(slot_of(v));
      }
      node.end = static_cast<int>(arguments_.size());
      break;
    case FormulaKind::kNot:
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      int previous = -1;
      for (const FormulaPtr& child : f->Children()) {
        const int id = Compile(child, vocabulary, env, scope, free);
        if (previous < 0) {
          node.child = id;
        } else {
          nodes_[static_cast<size_t>(previous)].next = id;
        }
        previous = id;
      }
      break;
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall:
      node.slot = static_cast<int>(initial_slots_.size());
      initial_slots_.push_back(0);
      scope.emplace_back(&f->Variables()[0], node.slot);
      node.child = Compile(f->Children()[0], vocabulary, env, scope, free);
      scope.pop_back();
      break;
  }
  nodes_.push_back(node);
  return static_cast<int>(nodes_.size()) - 1;
}

bool CompiledSentence::Run(int id, const Structure& s, int* slots,
                           Tuple& buffer) const {
  const Node& node = nodes_[static_cast<size_t>(id)];
  switch (node.kind) {
    case FormulaKind::kAtom:
      buffer.clear();
      for (int i = node.begin; i < node.end; ++i) {
        buffer.push_back(slots[arguments_[static_cast<size_t>(i)]]);
      }
      return s.HasTuple(node.relation, buffer);
    case FormulaKind::kEqual:
      return slots[arguments_[static_cast<size_t>(node.begin)]] ==
             slots[arguments_[static_cast<size_t>(node.begin) + 1]];
    case FormulaKind::kNot:
      return !Run(node.child, s, slots, buffer);
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      // ∧ stops at the first false child, ∨ at the first true one.
      const bool stop_on = node.kind == FormulaKind::kOr;
      for (int c = node.child; c >= 0;
           c = nodes_[static_cast<size_t>(c)].next) {
        if (Run(c, s, slots, buffer) == stop_on) return stop_on;
      }
      return !stop_on;
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      // ∃ stops at the first witness, ∀ at the first counterexample.
      const bool stop_on = node.kind == FormulaKind::kExists;
      for (int e = 0; e < s.UniverseSize(); ++e) {
        slots[node.slot] = e;
        if (Run(node.child, s, slots, buffer) == stop_on) return stop_on;
      }
      return !stop_on;
    }
  }
  HOMPRES_CHECK(false);
  return false;
}

bool CompiledSentence::Evaluate(const Structure& s) const {
  HOMPRES_CHECK_EQ(s.GetVocabulary().NumRelations(), num_relations_);
  std::vector<int> slots = initial_slots_;
  Tuple buffer;
  buffer.reserve(static_cast<size_t>(max_arity_));
  return Run(root_, s, slots.data(), buffer);
}

bool Evaluate(const Structure& s, const FormulaPtr& f,
              const Environment& env) {
  return CompiledSentence(f, s.GetVocabulary(), env).Evaluate(s);
}

bool EvaluateSentence(const Structure& s, const FormulaPtr& f) {
  return CompiledSentence(f, s.GetVocabulary()).Evaluate(s);
}

bool ValidateFormulaForVocabulary(const FormulaPtr& f,
                                  const Vocabulary& vocabulary,
                                  std::string* error) {
  switch (f->Kind()) {
    case FormulaKind::kAtom: {
      const auto rel = vocabulary.IndexOf(f->Relation());
      if (!rel.has_value()) {
        if (error != nullptr) {
          *error = "unknown relation '" + f->Relation() + "'";
        }
        return false;
      }
      if (vocabulary.Arity(*rel) !=
          static_cast<int>(f->Variables().size())) {
        if (error != nullptr) {
          *error = "wrong arity for relation '" + f->Relation() + "'";
        }
        return false;
      }
      return true;
    }
    case FormulaKind::kEqual:
      return true;
    default:
      for (const auto& child : f->Children()) {
        if (!ValidateFormulaForVocabulary(child, vocabulary, error)) {
          return false;
        }
      }
      return true;
  }
}

}  // namespace hompres
