#include "cq/ucq.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "base/check.h"

namespace hompres {

UnionOfCq::UnionOfCq(std::vector<ConjunctiveQuery> disjuncts, int arity)
    : disjuncts_(std::move(disjuncts)), arity_(arity) {
  if (!disjuncts_.empty()) {
    arity_ = disjuncts_.front().Arity();
    for (const auto& d : disjuncts_) {
      HOMPRES_CHECK_EQ(d.Arity(), arity_);
    }
  }
  HOMPRES_CHECK_GE(arity_, 0);
}

bool UnionOfCq::SatisfiedBy(const Structure& b) const {
  for (const auto& d : disjuncts_) {
    if (d.SatisfiedBy(b)) return true;
  }
  return false;
}

std::vector<Tuple> UnionOfCq::Evaluate(const Structure& b) const {
  std::vector<Tuple> answers;
  for (const auto& d : disjuncts_) {
    std::vector<Tuple> part = d.Evaluate(b);
    answers.insert(answers.end(), part.begin(), part.end());
  }
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

std::string UnionOfCq::ToString() const {
  if (disjuncts_.empty()) return "false";
  std::ostringstream out;
  for (size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i > 0) out << " | ";
    out << disjuncts_[i].ToString();
  }
  return out.str();
}

bool UcqContained(const UnionOfCq& q1, const UnionOfCq& q2) {
  HOMPRES_CHECK_EQ(q1.Arity(), q2.Arity());
  for (const auto& d1 : q1.Disjuncts()) {
    bool covered = false;
    for (const auto& d2 : q2.Disjuncts()) {
      if (CqContained(d1, d2)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

bool UcqEquivalent(const UnionOfCq& q1, const UnionOfCq& q2) {
  return UcqContained(q1, q2) && UcqContained(q2, q1);
}

}  // namespace hompres
