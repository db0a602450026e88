// Unions of conjunctive queries (select-project-join-union queries) and
// the Sagiv-Yannakakis containment test (used in Theorem 7.4's proof).

#ifndef HOMPRES_CQ_UCQ_H_
#define HOMPRES_CQ_UCQ_H_

#include <string>
#include <vector>

#include "cq/cq.h"

namespace hompres {

class UnionOfCq {
 public:
  // All disjuncts must share the arity. An empty union is the constant
  // false query (pass the arity explicitly).
  explicit UnionOfCq(std::vector<ConjunctiveQuery> disjuncts, int arity = 0);

  const std::vector<ConjunctiveQuery>& Disjuncts() const {
    return disjuncts_;
  }
  int Arity() const { return arity_; }

  bool SatisfiedBy(const Structure& b) const;

  // Union of the disjuncts' answers, sorted and deduplicated.
  std::vector<Tuple> Evaluate(const Structure& b) const;

  std::string ToString() const;

 private:
  std::vector<ConjunctiveQuery> disjuncts_;
  int arity_;
};

// Sagiv-Yannakakis: q1 ⊆ q2 iff every disjunct of q1 is contained in some
// disjunct of q2.
bool UcqContained(const UnionOfCq& q1, const UnionOfCq& q2);

bool UcqEquivalent(const UnionOfCq& q1, const UnionOfCq& q2);

}  // namespace hompres

#endif  // HOMPRES_CQ_UCQ_H_
