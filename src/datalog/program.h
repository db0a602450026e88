// Datalog programs (Section 2.3).
//
// A program is a finite set of rules head <- body over extensional (EDB)
// and intensional (IDB) predicates. IDB predicates are those occurring in
// rule heads; the program defines them as the least fixpoint of the
// monotone operator obtained by reading each rule as an existential
// positive formula. k-Datalog = at most k distinct variables in total.

#ifndef HOMPRES_DATALOG_PROGRAM_H_
#define HOMPRES_DATALOG_PROGRAM_H_

#include <optional>
#include <string>
#include <vector>

#include "structure/vocabulary.h"

namespace hompres {

// An atom whose arguments are variable names (constants are not needed
// for any construction in the paper).
struct DatalogAtom {
  std::string relation;
  std::vector<std::string> arguments;
};

struct DatalogRule {
  DatalogAtom head;
  std::vector<DatalogAtom> body;
  // Optional inequality constraints x != y between body variables — the
  // Datalog(≠) extension of Section 7.3, for which the Ajtai-Gurevich
  // theorem FAILS. Stage unfolding (Theorem 7.1) is only available for
  // programs without them.
  std::vector<std::pair<std::string, std::string>> inequalities = {};
};

class DatalogProgram {
 public:
  // Builds and validates a program over the given EDB vocabulary:
  // IDB predicates and arities are inferred from rule heads; every rule
  // must be safe (head variables occur in the body), bodies may use EDB
  // and IDB predicates, arities must be consistent, and rule bodies must
  // be nonempty. CHECK-fails on violations (programs are written by the
  // library user, not parsed from untrusted input).
  DatalogProgram(Vocabulary edb, std::vector<DatalogRule> rules);

  const Vocabulary& Edb() const { return edb_; }
  const Vocabulary& Idb() const { return idb_; }
  const std::vector<DatalogRule>& Rules() const { return rules_; }

  // Number of distinct variable names across the whole program (the k of
  // k-Datalog; the transitive-closure example is 3-Datalog).
  int TotalVariableCount() const;

  // Index of an IDB predicate by name.
  std::optional<int> IdbIndexOf(const std::string& name) const {
    return idb_.IndexOf(name);
  }

  // Index of an IDB predicate the program defines (a rule head, or a
  // body atom that names no EDB relation); CHECK-fails otherwise.
  int IdbIndex(const std::string& name) const;

  // True iff some rule carries an inequality constraint (Datalog(≠)).
  bool HasInequalities() const;

  std::string DebugString() const;

  // The transitive-closure program of Section 2.3:
  //   T(x,y) <- E(x,y)
  //   T(x,y) <- E(x,z), T(z,y)
  static DatalogProgram TransitiveClosure();

  // A bounded program: two-step reachability, no recursion.
  //   R(x,y) <- E(x,y)
  //   R(x,y) <- E(x,z), E(z,y)
  static DatalogProgram TwoStepReachability();

 private:
  Vocabulary edb_;
  Vocabulary idb_;
  std::vector<DatalogRule> rules_;
};

}  // namespace hompres

#endif  // HOMPRES_DATALOG_PROGRAM_H_
