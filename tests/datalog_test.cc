#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "datalog/rule_eval.h"
#include "datalog/stages.h"
#include "structure/generators.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

TEST(Program, TransitiveClosureShape) {
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  EXPECT_EQ(tc.Idb().NumRelations(), 1);
  EXPECT_EQ(tc.Idb().Name(0), "T");
  EXPECT_EQ(tc.Idb().Arity(0), 2);
  EXPECT_EQ(tc.TotalVariableCount(), 3);  // the paper's 3-Datalog example
}

TEST(Eval, TransitiveClosureOnPath) {
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Structure p4 = DirectedPathStructure(4);  // 0->1->2->3
  DatalogResult result = EvaluateNaive(tc, p4);
  const auto& t = result.idb[0];
  EXPECT_EQ(t.size(), 6u);  // all i<j pairs
  EXPECT_TRUE(t.count({0, 3}) > 0);
  EXPECT_FALSE(t.count({3, 0}) > 0);
}

TEST(Eval, TransitiveClosureOnCycleIsComplete) {
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Structure c3 = DirectedCycleStructure(3);
  DatalogResult result = EvaluateNaive(tc, c3);
  EXPECT_EQ(result.idb[0].size(), 9u);  // every pair reachable
}

TEST(Eval, StageSemantics) {
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Structure p5 = DirectedPathStructure(5);  // path with 4 edges
  // Stage m contains paths of length <= m.
  EXPECT_EQ(Stage(tc, p5, 0)[0].size(), 0u);
  EXPECT_EQ(Stage(tc, p5, 1)[0].size(), 4u);   // the edges
  EXPECT_EQ(Stage(tc, p5, 2)[0].size(), 4u + 3u);
  EXPECT_EQ(Stage(tc, p5, 4)[0].size(), 10u);  // all pairs i<j
  EXPECT_EQ(Stage(tc, p5, 9)[0].size(), 10u);  // fixpoint reached
}

TEST(Eval, StageCountOnPaths) {
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  for (int n : {2, 4, 7}) {
    Structure p = DirectedPathStructure(n);
    DatalogResult result = EvaluateNaive(tc, p);
    // Fixpoint needs n-1 stages on a path with n-1 edges.
    EXPECT_EQ(result.stages, n - 1) << "n=" << n;
  }
}

TEST(Eval, SemiNaiveAgreesWithNaive) {
  Rng rng(88);
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  for (int trial = 0; trial < 15; ++trial) {
    Structure edb = RandomStructure(GraphVocabulary(), 2 + trial % 5,
                                    1 + trial, rng);
    DatalogResult naive = EvaluateNaive(tc, edb);
    DatalogResult semi = EvaluateSemiNaive(tc, edb);
    EXPECT_EQ(naive.idb, semi.idb);
    EXPECT_EQ(naive.stages, semi.stages);
  }
}

TEST(Eval, SemiNaiveDoesLessWork) {
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Structure p = DirectedPathStructure(12);
  DatalogResult naive = EvaluateNaive(tc, p);
  DatalogResult semi = EvaluateSemiNaive(tc, p);
  EXPECT_EQ(naive.idb, semi.idb);
  EXPECT_LT(semi.derivations, naive.derivations);
}

TEST(Eval, BoundedProgramStages) {
  DatalogProgram two = DatalogProgram::TwoStepReachability();
  Structure p = DirectedPathStructure(10);
  DatalogResult result = EvaluateNaive(two, p);
  // Non-recursive: fixpoint after 1 stage regardless of input size.
  EXPECT_EQ(result.stages, 1);
  EXPECT_EQ(result.idb[0].size(), 9u + 8u);
}

// Body positions of a compiled order, in join order.
std::vector<int> JoinOrder(const CompiledRule& rule) {
  std::vector<int> order;
  for (const CompiledAtom& atom : rule.atoms) order.push_back(atom.body_pos);
  return order;
}

TEST(RuleEval, BatchAndMaintenanceOrdersOnFixedRules) {
  const std::optional<DatalogProgram> program = ParseDatalogProgram(
      "T(x,y) <- E(x,z), T(z,y)."
      " S(x,w) <- E(x,y), E(z,w), E(y,z)."
      " D(x) <- E(y,z), E(x,x), x != y.",
      GraphVocabulary());
  ASSERT_TRUE(program.has_value());
  const std::vector<DatalogRule>& rules = program->Rules();
  // The batch order: greedy bound-first, ties to the lower position.
  EXPECT_EQ(JoinOrder(CompileRule(rules[0])), (std::vector<int>{0, 1}));
  EXPECT_EQ(JoinOrder(CompileRule(rules[1])), (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(JoinOrder(CompileRule(rules[2])), (std::vector<int>{0, 1}));
  for (const DatalogRule& rule : rules) {
    const MaintenanceOrders orders = CompileMaintenanceOrders(rule);
    EXPECT_EQ(JoinOrder(orders.full), JoinOrder(CompileRule(rule)));
    ASSERT_EQ(orders.from_delta.size(), rule.body.size());
    for (size_t i = 0; i < rule.body.size(); ++i) {
      EXPECT_EQ(orders.from_delta[i].atoms.front().body_pos,
                static_cast<int>(i));
    }
  }
  const MaintenanceOrders s = CompileMaintenanceOrders(rules[1]);
  EXPECT_EQ(JoinOrder(s.from_delta[1]), (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(JoinOrder(s.from_delta[2]), (std::vector<int>{2, 0, 1}));
  // Head-bound: x and w count as bound, so the atoms holding them lead.
  EXPECT_EQ(JoinOrder(s.head_bound), (std::vector<int>{0, 1, 2}));
  // The inequality x != y is checked as soon as both slots are bound,
  // which in every order is after the second atom.
  const MaintenanceOrders d = CompileMaintenanceOrders(rules[2]);
  EXPECT_EQ(JoinOrder(d.from_delta[1]), (std::vector<int>{1, 0}));
  EXPECT_EQ(d.full.ineqs_after[0].size(), 0u);
  EXPECT_EQ(d.full.ineqs_after[1].size(), 1u);
  EXPECT_EQ(d.from_delta[1].ineqs_after[1].size(), 1u);
  EXPECT_EQ(JoinOrder(d.head_bound), (std::vector<int>{1, 0}));
}

TEST(Eval, SemiNaiveCountsOnFixedProgramsAreGolden) {
  // The batch evaluator keeps the batch join order: stage and derivation
  // counts on fixed inputs are pinned, so a change to the shared rule
  // compiler that reorders batch joins shows here.
  struct Case {
    const char* program;
    Structure edb;
    int stages;
    long long derivations;
  };
  Structure grid(GraphVocabulary(), 9);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      if (c + 1 < 3) grid.AddTuple(0, {3 * r + c, 3 * r + c + 1});
      if (r + 1 < 3) grid.AddTuple(0, {3 * r + c, 3 * (r + 1) + c});
    }
  }
  Rng rng(2026);
  const std::vector<Case> cases = {
      {"T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).",
       DirectedPathStructure(8), 7, 77},
      {"T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).",
       DirectedCycleStructure(5), 5, 55},
      {"R(x,y) <- E(x,y). R(x,y) <- E(x,z), E(z,y).", grid, 1, 38},
      {"T(x,y) <- E(x,y). T(x,y) <- T(x,z), T(z,y). "
       "N(x,y) <- T(x,y), T(y,z), x != z.",
       RandomStructure(GraphVocabulary(), 6, 9, rng), 3, 287},
  };
  for (const Case& c : cases) {
    const std::optional<DatalogProgram> program =
        ParseDatalogProgram(c.program, GraphVocabulary());
    ASSERT_TRUE(program.has_value()) << c.program;
    const DatalogResult result = EvaluateSemiNaive(*program, c.edb);
    EXPECT_EQ(result.stages, c.stages) << c.program;
    EXPECT_EQ(result.derivations, c.derivations) << c.program;
  }
}

TEST(Stages, Theorem71StageFormulasMatchOperatorStages) {
  // The UCQ for stage m evaluates exactly to the m-th operator stage
  // (Theorem 7.1(1)).
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Rng rng(17);
  for (int m = 0; m <= 3; ++m) {
    UnionOfCq theta = StageUcq(tc, 0, m);
    for (int trial = 0; trial < 6; ++trial) {
      Structure edb = RandomStructure(GraphVocabulary(), 2 + trial % 3,
                                      2 + trial, rng);
      const auto stage = Stage(tc, edb, m)[0];
      const auto answers = theta.Evaluate(edb);
      std::set<Tuple> answer_set(answers.begin(), answers.end());
      EXPECT_EQ(answer_set, stage) << "m=" << m;
    }
  }
}

TEST(Stages, TransitiveClosureStagesArePaths) {
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  // Theta^m(x,y) = union of "path of length l from x to y", 1 <= l <= m.
  UnionOfCq theta2 = StageUcq(tc, 0, 2);
  EXPECT_EQ(theta2.Disjuncts().size(), 2u);
  UnionOfCq theta3 = StageUcq(tc, 0, 3);
  EXPECT_EQ(theta3.Disjuncts().size(), 3u);
}

TEST(Stages, UnboundedProgramHasNoWitness) {
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  EXPECT_FALSE(FindBoundednessWitness(tc, 0, 5).has_value());
}

TEST(Stages, BoundedProgramHasWitness) {
  DatalogProgram two = DatalogProgram::TwoStepReachability();
  const auto witness = FindBoundednessWitness(two, 0, 5);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(*witness, 1);
}

TEST(Stages, BoundedRecursiveProgramDetected) {
  // A recursive program that is nevertheless bounded:
  //   S(x) <- E(x,x)
  //   S(x) <- E(x,x), S(x)
  // The recursive rule adds nothing; Theta^1 ≡ Theta^2.
  DatalogProgram program(
      GraphVocabulary(),
      {DatalogRule{{"S", {"x"}}, {{"E", {"x", "x"}}}},
       DatalogRule{{"S", {"x"}}, {{"E", {"x", "x"}}, {"S", {"x"}}}}});
  const auto witness = FindBoundednessWitness(program, 0, 4);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(*witness, 1);
}

TEST(Stages, WitnessWaitsForEveryIdbItReads) {
  //   L(x) <- E(x,x)
  //   T(y) <- L(x), E(x,y)
  // T's stages 0 and 1 are both false, yet stage 2 is not: T reads L,
  // which only stabilizes at stage 1. T's witness is 2, L's is 1.
  DatalogProgram program(
      GraphVocabulary(),
      {DatalogRule{{"L", {"x"}}, {{"E", {"x", "x"}}}},
       DatalogRule{{"T", {"y"}}, {{"L", {"x"}}, {"E", {"x", "y"}}}}});
  const int l = *program.IdbIndexOf("L");
  const int t = *program.IdbIndexOf("T");
  EXPECT_EQ(FindBoundednessWitness(program, l, 4), std::optional<int>(1));
  EXPECT_EQ(FindBoundednessWitness(program, t, 4), std::optional<int>(2));
  EXPECT_EQ(FindBoundednessWitness(program, t, 2), std::nullopt);
  EXPECT_EQ(StageUcq(program, t, 1).Disjuncts().size(), 0u);
  EXPECT_EQ(StageUcq(program, t, 2).Disjuncts().size(), 1u);
}

TEST(Stages, MutualRecursion) {
  // Even/odd path length via mutual recursion over {E/2}:
  //   Odd(x,y)  <- E(x,y)
  //   Odd(x,y)  <- E(x,z), Even(z,y)
  //   Even(x,y) <- E(x,z), Odd(z,y)
  DatalogProgram program(
      GraphVocabulary(),
      {DatalogRule{{"Odd", {"x", "y"}}, {{"E", {"x", "y"}}}},
       DatalogRule{{"Odd", {"x", "y"}},
                   {{"E", {"x", "z"}}, {"Even", {"z", "y"}}}},
       DatalogRule{{"Even", {"x", "y"}},
                   {{"E", {"x", "z"}}, {"Odd", {"z", "y"}}}}});
  Structure p5 = DirectedPathStructure(5);
  DatalogResult result = EvaluateNaive(program, p5);
  const int odd = *program.IdbIndexOf("Odd");
  const int even = *program.IdbIndexOf("Even");
  EXPECT_TRUE(result.idb[static_cast<size_t>(odd)].count({0, 1}) > 0);
  EXPECT_TRUE(result.idb[static_cast<size_t>(even)].count({0, 2}) > 0);
  EXPECT_FALSE(result.idb[static_cast<size_t>(even)].count({0, 1}) > 0);
  EXPECT_TRUE(result.idb[static_cast<size_t>(odd)].count({0, 3}) > 0);
  // Stage formulas stay in sync for mutual recursion too.
  UnionOfCq theta = StageUcq(program, odd, 3);
  const auto answers = theta.Evaluate(p5);
  const auto stage = Stage(program, p5, 3)[static_cast<size_t>(odd)];
  EXPECT_EQ(std::set<Tuple>(answers.begin(), answers.end()), stage);
}

}  // namespace
}  // namespace hompres
