#include "datalog/program.h"

#include <set>
#include <sstream>

#include "base/check.h"

namespace hompres {

DatalogProgram::DatalogProgram(Vocabulary edb, std::vector<DatalogRule> rules)
    : edb_(std::move(edb)), rules_(std::move(rules)) {
  // Infer IDB predicates from heads.
  for (const DatalogRule& rule : rules_) {
    HOMPRES_CHECK(!rule.body.empty());
    HOMPRES_CHECK(!edb_.IndexOf(rule.head.relation).has_value());
    const auto existing = idb_.IndexOf(rule.head.relation);
    if (existing.has_value()) {
      HOMPRES_CHECK_EQ(idb_.Arity(*existing),
                       static_cast<int>(rule.head.arguments.size()));
    } else {
      idb_.AddRelation(rule.head.relation,
                       static_cast<int>(rule.head.arguments.size()));
    }
  }
  // Validate bodies and safety.
  for (const DatalogRule& rule : rules_) {
    std::set<std::string> body_variables;
    for (const DatalogAtom& atom : rule.body) {
      const auto edb_index = edb_.IndexOf(atom.relation);
      const auto idb_index = idb_.IndexOf(atom.relation);
      HOMPRES_CHECK(edb_index.has_value() || idb_index.has_value());
      const int arity = edb_index.has_value() ? edb_.Arity(*edb_index)
                                              : idb_.Arity(*idb_index);
      HOMPRES_CHECK_EQ(arity, static_cast<int>(atom.arguments.size()));
      for (const auto& v : atom.arguments) body_variables.insert(v);
    }
    for (const auto& v : rule.head.arguments) {
      HOMPRES_CHECK(body_variables.count(v) > 0);  // safety
    }
    for (const auto& [left, right] : rule.inequalities) {
      HOMPRES_CHECK(body_variables.count(left) > 0);
      HOMPRES_CHECK(body_variables.count(right) > 0);
    }
  }
}

int DatalogProgram::IdbIndex(const std::string& name) const {
  const std::optional<int> index = idb_.IndexOf(name);
  HOMPRES_CHECK(index.has_value());
  return *index;
}

bool DatalogProgram::HasInequalities() const {
  for (const DatalogRule& rule : rules_) {
    if (!rule.inequalities.empty()) return true;
  }
  return false;
}

int DatalogProgram::TotalVariableCount() const {
  std::set<std::string> variables;
  for (const DatalogRule& rule : rules_) {
    for (const auto& v : rule.head.arguments) variables.insert(v);
    for (const DatalogAtom& atom : rule.body) {
      for (const auto& v : atom.arguments) variables.insert(v);
    }
  }
  return static_cast<int>(variables.size());
}

std::string DatalogProgram::DebugString() const {
  std::ostringstream out;
  for (const DatalogRule& rule : rules_) {
    out << rule.head.relation << '(';
    for (size_t i = 0; i < rule.head.arguments.size(); ++i) {
      if (i > 0) out << ',';
      out << rule.head.arguments[i];
    }
    out << ") <- ";
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (i > 0) out << ", ";
      out << rule.body[i].relation << '(';
      for (size_t j = 0; j < rule.body[i].arguments.size(); ++j) {
        if (j > 0) out << ',';
        out << rule.body[i].arguments[j];
      }
      out << ')';
    }
    for (const auto& [left, right] : rule.inequalities) {
      out << ", " << left << " != " << right;
    }
    out << "\n";
  }
  return out.str();
}

DatalogProgram DatalogProgram::TransitiveClosure() {
  return DatalogProgram(
      GraphVocabulary(),
      {DatalogRule{{"T", {"x", "y"}}, {{"E", {"x", "y"}}}},
       DatalogRule{{"T", {"x", "y"}},
                   {{"E", {"x", "z"}}, {"T", {"z", "y"}}}}});
}

DatalogProgram DatalogProgram::TwoStepReachability() {
  return DatalogProgram(
      GraphVocabulary(),
      {DatalogRule{{"R", {"x", "y"}}, {{"E", {"x", "y"}}}},
       DatalogRule{{"R", {"x", "y"}},
                   {{"E", {"x", "z"}}, {"E", {"z", "y"}}}}});
}

}  // namespace hompres
