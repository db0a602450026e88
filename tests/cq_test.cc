#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/rng.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "graph/builders.h"
#include "opt/optimizer.h"
#include "structure/generators.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

// phi = Ex Ey Ez (E(x,y) & E(y,z)): "there is a path of length 2".
ConjunctiveQuery PathQuery(int edges) {
  return ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(edges + 1));
}

TEST(Cq, ChandraMerlinSatisfaction) {
  // B |= phi_A iff hom(A, B) (Theorem 2.1).
  ConjunctiveQuery q = PathQuery(2);
  EXPECT_TRUE(q.SatisfiedBy(DirectedPathStructure(5)));
  EXPECT_TRUE(q.SatisfiedBy(DirectedCycleStructure(3)));
  EXPECT_FALSE(q.SatisfiedBy(DirectedPathStructure(2)));  // only 1 edge
}

TEST(Cq, BooleanEvaluateYieldsEmptyTuple) {
  ConjunctiveQuery q = PathQuery(1);
  const auto answers = q.Evaluate(DirectedPathStructure(2));
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers[0].empty());
  EXPECT_TRUE(q.Evaluate(Structure(GraphVocabulary(), 1)).empty());
}

TEST(Cq, NonBooleanAnswers) {
  // q(x, y) = E(x, y): answers are the edges themselves.
  Structure canonical(GraphVocabulary(), 2);
  canonical.AddTuple(0, {0, 1});
  ConjunctiveQuery q(canonical, {0, 1});
  Structure p3 = DirectedPathStructure(3);
  const auto answers = q.Evaluate(p3);
  EXPECT_EQ(answers, (std::vector<Tuple>{{0, 1}, {1, 2}}));
}

TEST(Cq, ProjectionAnswers) {
  // q(x) = Ey E(x, y): elements with out-edges.
  Structure canonical(GraphVocabulary(), 2);
  canonical.AddTuple(0, {0, 1});
  ConjunctiveQuery q(canonical, {0});
  const auto answers = q.Evaluate(DirectedPathStructure(3));
  EXPECT_EQ(answers, (std::vector<Tuple>{{0}, {1}}));
}

TEST(Cq, ContainmentLongerPathImpliesShorter) {
  // "path of length 3" implies "path of length 2" as Boolean queries.
  EXPECT_TRUE(CqContained(PathQuery(3), PathQuery(2)));
  EXPECT_FALSE(CqContained(PathQuery(2), PathQuery(3)));
}

TEST(Cq, ContainmentRespectsFreeVariables) {
  // q1(x) = "x has an out-edge to something with an out-edge";
  // q2(x) = "x has an out-edge". q1 ⊆ q2.
  Structure c1(GraphVocabulary(), 3);
  c1.AddTuple(0, {0, 1});
  c1.AddTuple(0, {1, 2});
  ConjunctiveQuery q1(c1, {0});
  Structure c2(GraphVocabulary(), 2);
  c2.AddTuple(0, {0, 1});
  ConjunctiveQuery q2(c2, {0});
  EXPECT_TRUE(CqContained(q1, q2));
  EXPECT_FALSE(CqContained(q2, q1));
}

TEST(Cq, ContainmentWithRepeatedVariableInOneAtom) {
  // loop = Ex E(x,x); edge = Ex Ey E(x,y). A loop is an edge, so
  // loop ⊆ edge; an edge need not be a loop.
  Structure loop_canonical(GraphVocabulary(), 1);
  loop_canonical.AddTuple(0, {0, 0});
  ConjunctiveQuery loop = ConjunctiveQuery::BooleanQueryOf(loop_canonical);
  ConjunctiveQuery edge = PathQuery(1);
  EXPECT_TRUE(CqContained(loop, edge));
  EXPECT_FALSE(CqContained(edge, loop));
}

TEST(Cq, ContainmentWithRepeatedFreeVariable) {
  // diag(x, x) = E(x,x) listing the same element in both output
  // positions, versus pair(x, y) = E(x,y). The containment test forces
  // free variables pointwise, so the repeated-variable query is
  // contained in the general one but not conversely: pair's two free
  // variables cannot both be forced onto diag's single element unless
  // they were already equal.
  Structure diag_canonical(GraphVocabulary(), 1);
  diag_canonical.AddTuple(0, {0, 0});
  ConjunctiveQuery diag(diag_canonical, {0, 0});
  Structure pair_canonical(GraphVocabulary(), 2);
  pair_canonical.AddTuple(0, {0, 1});
  ConjunctiveQuery pair(pair_canonical, {0, 1});
  EXPECT_TRUE(CqContained(diag, pair));
  EXPECT_FALSE(CqContained(pair, diag));
  // Sanity at the answer level: on a structure with a loop and a
  // non-loop edge, diag answers only the loop pair.
  Structure b(GraphVocabulary(), 2);
  b.AddTuple(0, {0, 0});
  b.AddTuple(0, {0, 1});
  EXPECT_EQ(diag.Evaluate(b), (std::vector<Tuple>{{0, 0}}));
  EXPECT_EQ(pair.Evaluate(b), (std::vector<Tuple>{{0, 0}, {0, 1}}));
}

// {P/0, E/2}: a nullary "flag" relation alongside edges.
Vocabulary FlagVocabulary() {
  Vocabulary voc;
  voc.AddRelation("P", 0);
  voc.AddRelation("E", 2);
  return voc;
}

TEST(Cq, ContainmentWithNullaryAtoms) {
  // q_flag = P() & Ex E(x,y): asserts the flag. q_plain = Ex E(x,y).
  // q_flag ⊆ q_plain (dropping a conjunct only widens the query), but
  // q_plain ⊄ q_flag: a structure with an edge and no flag separates
  // them. The homomorphism kernel's propagation is variable-driven and
  // never sees a 0-ary atom, so this row pins the explicit nullary
  // pre-check in CqContainedBudgeted.
  Structure flag_canonical(FlagVocabulary(), 2);
  flag_canonical.AddTuple(0, {});
  flag_canonical.AddTuple(1, {0, 1});
  ConjunctiveQuery q_flag = ConjunctiveQuery::BooleanQueryOf(flag_canonical);
  Structure plain_canonical(FlagVocabulary(), 2);
  plain_canonical.AddTuple(1, {0, 1});
  ConjunctiveQuery q_plain =
      ConjunctiveQuery::BooleanQueryOf(plain_canonical);
  EXPECT_TRUE(CqContained(q_flag, q_plain));
  EXPECT_FALSE(CqContained(q_plain, q_flag));
  // The separating structure, checked end to end.
  Structure edge_no_flag(FlagVocabulary(), 2);
  edge_no_flag.AddTuple(1, {0, 1});
  EXPECT_TRUE(q_plain.SatisfiedBy(edge_no_flag));
  EXPECT_FALSE(q_flag.SatisfiedBy(edge_no_flag));
}

TEST(Cq, NullaryOnlyQueriesContainEachOther) {
  // Two copies of the pure-flag query P() over empty universes: mutual
  // containment must hold even though there is no variable at all.
  Structure a(FlagVocabulary(), 0);
  a.AddTuple(0, {});
  Structure b(FlagVocabulary(), 0);
  b.AddTuple(0, {});
  EXPECT_TRUE(CqEquivalent(ConjunctiveQuery::BooleanQueryOf(a),
                           ConjunctiveQuery::BooleanQueryOf(b)));
  // And the flagless empty query strictly contains the flagged one.
  Structure no_flag(FlagVocabulary(), 0);
  ConjunctiveQuery q_true = ConjunctiveQuery::BooleanQueryOf(no_flag);
  ConjunctiveQuery q_flag = ConjunctiveQuery::BooleanQueryOf(a);
  EXPECT_TRUE(CqContained(q_flag, q_true));
  EXPECT_FALSE(CqContained(q_true, q_flag));
}

TEST(Cq, EquivalenceOfRenamedQueries) {
  // Two copies of the same pattern with different element orders.
  Structure a(GraphVocabulary(), 2);
  a.AddTuple(0, {0, 1});
  Structure b(GraphVocabulary(), 2);
  b.AddTuple(0, {1, 0});
  EXPECT_TRUE(CqEquivalent(ConjunctiveQuery::BooleanQueryOf(a),
                           ConjunctiveQuery::BooleanQueryOf(b)));
}

TEST(Cq, MinimizationCollapsesRedundantAtoms) {
  // Ex Ey Ez (E(x,y) & E(x,z)) is equivalent to Ex Ey E(x,y).
  Structure canonical(GraphVocabulary(), 3);
  canonical.AddTuple(0, {0, 1});
  canonical.AddTuple(0, {0, 2});
  ConjunctiveQuery q = ConjunctiveQuery::BooleanQueryOf(canonical);
  ConjunctiveQuery minimized = MinimizeCq(q);
  EXPECT_EQ(minimized.Canonical().UniverseSize(), 2);
  EXPECT_EQ(minimized.Canonical().NumTuples(), 1);
  EXPECT_TRUE(CqEquivalent(q, minimized));
}

TEST(Cq, MinimizationKeepsCores) {
  // The 3-cycle query is already minimal.
  ConjunctiveQuery q =
      ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(3));
  ConjunctiveQuery minimized = MinimizeCq(q);
  EXPECT_EQ(minimized.Canonical().UniverseSize(), 3);
  EXPECT_EQ(minimized.Canonical().NumTuples(), 3);
}

TEST(Cq, MinimizationPreservesFreeVariables) {
  // q(x) = Ey Ez (E(x,y) & E(x,z)) minimizes to Ey E(x,y), keeping x free.
  Structure canonical(GraphVocabulary(), 3);
  canonical.AddTuple(0, {0, 1});
  canonical.AddTuple(0, {0, 2});
  ConjunctiveQuery q(canonical, {0});
  ConjunctiveQuery minimized = MinimizeCq(q);
  EXPECT_EQ(minimized.Canonical().UniverseSize(), 2);
  EXPECT_EQ(minimized.Arity(), 1);
  EXPECT_TRUE(CqEquivalent(q, minimized));
}

// The minimizer's earlier one-step scan, kept as its oracle: both
// containment directions probed for every candidate element and atom
// removal, rescanning from the start after each success.
bool OracleOneStepReduction(const ConjunctiveQuery& q, Budget& budget,
                            ConjunctiveQuery* out) {
  const Structure& canonical = q.Canonical();
  std::vector<bool> is_free(static_cast<size_t>(canonical.UniverseSize()),
                            false);
  for (int e : q.FreeElements()) is_free[static_cast<size_t>(e)] = true;
  for (int e = 0; e < canonical.UniverseSize(); ++e) {
    if (is_free[static_cast<size_t>(e)]) continue;
    std::vector<int> old_to_new;
    Structure candidate = canonical.RemoveElement(e, &old_to_new);
    std::vector<int> free_elements;
    for (int f : q.FreeElements()) {
      free_elements.push_back(old_to_new[static_cast<size_t>(f)]);
    }
    ConjunctiveQuery reduced(std::move(candidate), std::move(free_elements));
    if (CqEquivalentBudgeted(q, reduced, budget).Value()) {
      *out = std::move(reduced);
      return true;
    }
  }
  for (int rel = 0; rel < canonical.GetVocabulary().NumRelations(); ++rel) {
    const int count = static_cast<int>(canonical.Tuples(rel).size());
    for (int i = 0; i < count; ++i) {
      ConjunctiveQuery reduced(canonical.RemoveTuple(rel, i),
                               q.FreeElements());
      if (CqEquivalentBudgeted(q, reduced, budget).Value()) {
        *out = std::move(reduced);
        return true;
      }
    }
  }
  return false;
}

// A random CQ over {Z/0, U/1, E/2} with 1-3 free positions (repeats
// allowed): a few edges, loops among them, unary marks, and sometimes
// the 0-ary atom.
ConjunctiveQuery RandomFreeCq(Rng& rng) {
  Vocabulary voc;
  voc.AddRelation("Z", 0);
  voc.AddRelation("U", 1);
  voc.AddRelation("E", 2);
  const int n = rng.UniformInt(1, 6);
  Structure canonical(voc, n);
  if (rng.Bernoulli(0.4)) canonical.AddTuple(0, {});
  for (int k = rng.UniformInt(0, 2); k > 0; --k) {
    canonical.AddTuple(1, {rng.UniformInt(0, n - 1)});
  }
  for (int k = rng.UniformInt(0, 2 * n); k > 0; --k) {
    const int x = rng.UniformInt(0, n - 1);
    const int y = rng.Bernoulli(0.2) ? x : rng.UniformInt(0, n - 1);
    canonical.AddTuple(2, {x, y});
  }
  std::vector<int> free_elements;
  for (int k = rng.UniformInt(1, 3); k > 0; --k) {
    free_elements.push_back(rng.UniformInt(0, n - 1));
  }
  return ConjunctiveQuery(std::move(canonical), std::move(free_elements));
}

TEST(Cq, MinimizationMatchesTheTwoSidedScan) {
  // The single element pass (one q-e ⊆ q search per element, no atom
  // removals) reaches exactly the query the two-sided retry-everything
  // scan reaches, and the engine work (budget steps) can only shrink.
  Rng rng(20261018);
  uint64_t oracle_steps = 0;
  uint64_t steps = 0;
  int reduced = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const ConjunctiveQuery q = RandomFreeCq(rng);
    Budget oracle_budget = Budget::Unlimited();
    ConjunctiveQuery expected = q;
    ConjunctiveQuery next = q;
    while (OracleOneStepReduction(expected, oracle_budget, &next)) {
      expected = next;
    }
    Budget budget = Budget::Unlimited();
    Outcome<ConjunctiveQuery> minimized = MinimizeCqBudgeted(q, budget);
    ASSERT_TRUE(minimized.IsDone());
    const ConjunctiveQuery& got = minimized.Value();
    ASSERT_TRUE(got.Canonical() == expected.Canonical())
        << "trial " << trial << ": " << q.ToString() << " minimized to "
        << got.ToString() << ", oracle " << expected.ToString();
    ASSERT_EQ(got.FreeElements(), expected.FreeElements())
        << "trial " << trial << ": " << q.ToString();
    const uint64_t used = budget.Report().steps_used;
    const uint64_t oracle_used = oracle_budget.Report().steps_used;
    EXPECT_LE(used, oracle_used) << "trial " << trial << ": " << q.ToString();
    steps += used;
    oracle_steps += oracle_used;
    if (expected.Canonical().NumTuples() < q.Canonical().NumTuples()) {
      ++reduced;
    }
  }
  EXPECT_GT(reduced, 50);  // the draw exercises real reductions
  EXPECT_LT(steps, oracle_steps);
}

TEST(Cq, ToStringMentionsAtoms) {
  const std::string text = PathQuery(1).ToString();
  EXPECT_NE(text.find("E(x0,x1)"), std::string::npos);
}

TEST(Ucq, EvaluationIsUnionOfDisjuncts) {
  UnionOfCq q({PathQuery(3), PathQuery(1)});
  EXPECT_TRUE(q.SatisfiedBy(DirectedPathStructure(2)));   // via length-1
  EXPECT_FALSE(q.SatisfiedBy(Structure(GraphVocabulary(), 2)));
}

TEST(Ucq, EmptyUnionIsFalse) {
  UnionOfCq q({}, 0);
  EXPECT_FALSE(q.SatisfiedBy(DirectedPathStructure(3)));
  EXPECT_TRUE(q.Evaluate(DirectedPathStructure(3)).empty());
}

TEST(Ucq, SagivYannakakisContainment) {
  // {path3} ⊆ {path2, path5} because path3 ⊆ path2.
  UnionOfCq q1({PathQuery(3)});
  UnionOfCq q2({PathQuery(2), PathQuery(5)});
  EXPECT_TRUE(UcqContained(q1, q2));
  // {path2} ⊄ {path3, path5}.
  UnionOfCq q3({PathQuery(2)});
  UnionOfCq q4({PathQuery(3), PathQuery(5)});
  EXPECT_FALSE(UcqContained(q3, q4));
}

TEST(Ucq, ContainmentNeedsPerDisjunctWitness) {
  // The classic point of Sagiv-Yannakakis: q1 ⊆ q2 as a whole iff EACH
  // disjunct of q1 is contained in SOME single disjunct of q2. The
  // subsumed disjunct path4 rides along for free in both directions here:
  UnionOfCq q1({PathQuery(1), PathQuery(4)});
  UnionOfCq q2({PathQuery(1)});
  EXPECT_TRUE(UcqContained(q1, q2));
  EXPECT_TRUE(UcqContained(q2, q1));  // path1 is itself a disjunct of q1
  // A genuinely incomparable pair: a directed 3-cycle is not contained in
  // any single path disjunct, even though... (C3 satisfies path-k queries
  // for every k, but containment must hold on ALL structures).
  UnionOfCq cycles(
      {ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(3))});
  UnionOfCq paths({PathQuery(1), PathQuery(2)});
  EXPECT_TRUE(UcqContained(cycles, paths));   // C3 |= path2 pattern: hom
  EXPECT_FALSE(UcqContained(paths, cycles));  // paths have no cycle
}

TEST(Ucq, EquivalenceAfterReordering) {
  UnionOfCq q1({PathQuery(1), PathQuery(2)});
  UnionOfCq q2({PathQuery(2), PathQuery(1)});
  EXPECT_TRUE(UcqEquivalent(q1, q2));
}

// UCQ minimization is the optimizer pass, unbudgeted, with its
// equivalence check.
UnionOfCq Minimized(const UnionOfCq& q) {
  OptimizerOptions options;
  options.verify = true;
  Budget unlimited = Budget::Unlimited();
  return OptimizeUcqBudgeted(q, unlimited, options);
}

TEST(Ucq, MinimizeDropsSubsumedDisjuncts) {
  // path3 ⊆ path2 ⊆ path1, so the union collapses to path1.
  UnionOfCq q({PathQuery(3), PathQuery(2), PathQuery(1)});
  UnionOfCq minimized = Minimized(q);
  EXPECT_EQ(minimized.Disjuncts().size(), 1u);
  EXPECT_TRUE(UcqEquivalent(q, minimized));
  // The survivor is the length-1 path query.
  EXPECT_EQ(minimized.Disjuncts()[0].Canonical().NumTuples(), 1);
}

TEST(Ucq, MinimizeKeepsIncomparableDisjuncts) {
  // Directed 3-cycle and directed 4-cycle queries are incomparable.
  UnionOfCq q({ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(3)),
               ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(4))});
  UnionOfCq minimized = Minimized(q);
  EXPECT_EQ(minimized.Disjuncts().size(), 2u);
}

TEST(Ucq, MinimizeDeduplicatesEquivalentDisjuncts) {
  UnionOfCq q({PathQuery(2), PathQuery(2)});
  UnionOfCq minimized = Minimized(q);
  EXPECT_EQ(minimized.Disjuncts().size(), 1u);
}

}  // namespace
}  // namespace hompres
