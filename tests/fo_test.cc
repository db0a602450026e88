#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/check.h"
#include "base/rng.h"
#include "base/subsets.h"
#include "cq/cq.h"
#include "fo/cqk.h"
#include "fo/ep.h"
#include "fo/eval.h"
#include "fo/formula.h"
#include "fo/parser.h"
#include "graph/builders.h"
#include "hom/homomorphism.h"
#include "structure/generators.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

FormulaPtr MustParse(const std::string& text) {
  std::string error;
  auto f = ParseFormula(text, &error);
  EXPECT_TRUE(f.has_value()) << error << " in: " << text;
  return *f;
}

TEST(Formula, ToStringRoundTrip) {
  FormulaPtr f = MustParse("exists x exists y (E(x,y) & !(x = y))");
  EXPECT_EQ(MustParse(f->ToString())->ToString(), f->ToString());
}

TEST(Formula, FreeAndAllVariables) {
  FormulaPtr f = MustParse("exists x (E(x,y) | E(x,z))");
  EXPECT_EQ(FreeVariables(f), (std::set<std::string>{"y", "z"}));
  EXPECT_EQ(AllVariables(f), (std::set<std::string>{"x", "y", "z"}));
  EXPECT_FALSE(IsSentence(f));
  EXPECT_TRUE(IsSentence(MustParse("exists x E(x,x)")));
}

TEST(Parser, RejectsGarbage) {
  std::string error;
  EXPECT_FALSE(ParseFormula("exists", &error).has_value());
  EXPECT_FALSE(ParseFormula("E(x", &error).has_value());
  EXPECT_FALSE(ParseFormula("E(x,y) extra", &error).has_value());
  EXPECT_FALSE(ParseFormula("", &error).has_value());
  EXPECT_FALSE(ParseFormula("(E(x,y)", &error).has_value());
}

TEST(Parser, PrecedenceAndOverOr) {
  FormulaPtr f = MustParse("E(x,y) | E(y,x) & E(x,x)");
  EXPECT_EQ(f->Kind(), FormulaKind::kOr);
  EXPECT_EQ(f->Children()[1]->Kind(), FormulaKind::kAnd);
}

TEST(Eval, AtomsAndConnectives) {
  Structure p3 = DirectedPathStructure(3);  // edges 0->1->2
  EXPECT_TRUE(Evaluate(p3, MustParse("E(x,y)"), {{"x", 0}, {"y", 1}}));
  EXPECT_FALSE(Evaluate(p3, MustParse("E(y,x)"), {{"x", 0}, {"y", 1}}));
  EXPECT_TRUE(Evaluate(p3, MustParse("!E(y,x)"), {{"x", 0}, {"y", 1}}));
  EXPECT_TRUE(Evaluate(p3, MustParse("x = x"), {{"x", 2}}));
}

TEST(Eval, Quantifiers) {
  Structure p3 = DirectedPathStructure(3);
  EXPECT_TRUE(EvaluateSentence(p3, MustParse("exists x exists y E(x,y)")));
  EXPECT_FALSE(EvaluateSentence(p3, MustParse("forall x exists y E(x,y)")));
  Structure c3 = DirectedCycleStructure(3);
  EXPECT_TRUE(EvaluateSentence(c3, MustParse("forall x exists y E(x,y)")));
}

TEST(Eval, EmptyStructureQuantifiers) {
  Structure empty(GraphVocabulary(), 0);
  EXPECT_FALSE(EvaluateSentence(empty, MustParse("exists x (x = x)")));
  EXPECT_TRUE(EvaluateSentence(empty, MustParse("forall x E(x,x)")));
}

TEST(Ep, RecognizesFragment) {
  EXPECT_TRUE(IsExistentialPositive(
      MustParse("exists x (E(x,x) | exists y (E(x,y) & x = y))")));
  EXPECT_FALSE(IsExistentialPositive(MustParse("!E(x,y)")));
  EXPECT_FALSE(IsExistentialPositive(MustParse("forall x E(x,x)")));
  EXPECT_FALSE(IsExistentialPositive(MustParse("exists x !E(x,x)")));
}

TEST(Ep, SimpleSentenceToUcq) {
  // "some edge or some loop".
  FormulaPtr f = MustParse("exists x exists y E(x,y) | exists z E(z,z)");
  auto ucq = ExistentialPositiveSentenceToUcq(f, GraphVocabulary());
  ASSERT_TRUE(ucq.has_value());
  EXPECT_EQ(ucq->Disjuncts().size(), 2u);
  EXPECT_TRUE(ucq->SatisfiedBy(DirectedPathStructure(2)));
  EXPECT_FALSE(ucq->SatisfiedBy(Structure(GraphVocabulary(), 3)));
}

TEST(Ep, ConversionAgreesWithEvaluation) {
  // Exhaustive agreement between FO evaluation and UCQ semantics on many
  // random structures.
  const std::vector<std::string> sentences = {
      "exists x exists y (E(x,y) & E(y,x))",
      "exists x exists y exists z (E(x,y) & E(y,z)) | exists w E(w,w)",
      "exists x (E(x,x) & exists y (E(x,y) | E(y,x)))",
      "exists x exists y (E(x,y) & x = y)",
      "exists x (x = x)",
  };
  Rng rng(5);
  for (const auto& text : sentences) {
    FormulaPtr f = MustParse(text);
    auto ucq = ExistentialPositiveSentenceToUcq(f, GraphVocabulary());
    ASSERT_TRUE(ucq.has_value()) << text;
    for (int trial = 0; trial < 15; ++trial) {
      Structure b = RandomStructure(GraphVocabulary(), 1 + trial % 4,
                                    trial % 5, rng);
      EXPECT_EQ(EvaluateSentence(b, f), ucq->SatisfiedBy(b))
          << text << " on " << b.DebugString();
    }
  }
}

TEST(Ep, EmptyStructureSemantics) {
  // ∃x (x = x) is false on the empty structure; the conversion must keep
  // the quantified variable as a canonical element.
  FormulaPtr f = MustParse("exists x (x = x)");
  auto ucq = ExistentialPositiveSentenceToUcq(f, GraphVocabulary());
  ASSERT_TRUE(ucq.has_value());
  Structure empty(GraphVocabulary(), 0);
  EXPECT_FALSE(ucq->SatisfiedBy(empty));
  EXPECT_TRUE(ucq->SatisfiedBy(Structure(GraphVocabulary(), 1)));
}

TEST(Ep, FreeVariableConversion) {
  // q(u) = "u has an out-edge or a loop".
  FormulaPtr f = MustParse("exists y E(u,y) | E(u,u)");
  auto ucq = ExistentialPositiveToUcq(f, GraphVocabulary(), {"u"});
  ASSERT_TRUE(ucq.has_value());
  Structure p3 = DirectedPathStructure(3);
  EXPECT_EQ(ucq->Evaluate(p3), (std::vector<Tuple>{{0}, {1}}));
}

TEST(Ep, RejectsNonEpAndUnknownRelations) {
  EXPECT_FALSE(ExistentialPositiveSentenceToUcq(
                   MustParse("forall x E(x,x)"), GraphVocabulary())
                   .has_value());
  EXPECT_FALSE(ExistentialPositiveSentenceToUcq(
                   MustParse("exists x R(x,x)"), GraphVocabulary())
                   .has_value());
  EXPECT_FALSE(ExistentialPositiveSentenceToUcq(
                   MustParse("exists x E(x,x,x)"), GraphVocabulary())
                   .has_value());
  // Uncovered free variable.
  EXPECT_FALSE(
      ExistentialPositiveToUcq(MustParse("E(u,v)"), GraphVocabulary(), {"u"})
          .has_value());
}

TEST(Ep, UcqToFormulaRoundTrip) {
  FormulaPtr f = MustParse(
      "exists x exists y (E(x,y) & E(y,x)) | exists z E(z,z)");
  auto ucq = ExistentialPositiveSentenceToUcq(f, GraphVocabulary());
  ASSERT_TRUE(ucq.has_value());
  FormulaPtr back = UcqToFormula(*ucq);
  Rng rng(11);
  for (int trial = 0; trial < 15; ++trial) {
    Structure b =
        RandomStructure(GraphVocabulary(), 1 + trial % 3, trial % 5, rng);
    EXPECT_EQ(EvaluateSentence(b, f), EvaluateSentence(b, back));
  }
}

TEST(Cqk, DistinctVariableCount) {
  EXPECT_EQ(DistinctVariableCount(MustParse(
                "exists x exists y (E(x,y) & exists x E(y,x))")),
            2);
}

TEST(Cqk, RecognizesFragment) {
  EXPECT_TRUE(IsCqkFormula(
      MustParse("exists x exists y (E(x,y) & exists x E(y,x))"), 2));
  EXPECT_FALSE(IsCqkFormula(MustParse("E(x,y) | E(y,x)"), 2));  // has ∨
  EXPECT_FALSE(IsCqkFormula(
      MustParse("exists x exists y exists z E(x,z)"), 2));  // 3 vars
}

TEST(Cqk, PaperExamplePathOfLengthThree) {
  // Section 7.1's example: the CQ^2 sentence
  // ∃x1 ∃x2 (E(x1,x2) ∧ ∃x1 (E(x2,x1) ∧ ∃x2 E(x1,x2)))
  // asserts a directed path of length 3.
  FormulaPtr f = MustParse(
      "exists x1 exists x2 (E(x1,x2) & exists x1 (E(x2,x1) & exists x2 "
      "E(x1,x2)))");
  ASSERT_TRUE(IsCqkFormula(f, 2));
  auto result = CqkCanonicalStructure(f, GraphVocabulary(), 2);
  ASSERT_TRUE(result.has_value());
  // Canonical structure: a directed path with 4 elements, 3 edges.
  EXPECT_EQ(result->structure.UniverseSize(), 4);
  EXPECT_EQ(result->structure.NumTuples(), 3);
  EXPECT_LE(result->decomposition.Width(), 1);
  // Equivalence: the canonical query and the formula agree everywhere.
  Rng rng(3);
  ConjunctiveQuery canonical_query =
      ConjunctiveQuery::BooleanQueryOf(result->structure);
  for (int trial = 0; trial < 20; ++trial) {
    Structure b =
        RandomStructure(GraphVocabulary(), 1 + trial % 4, trial % 6, rng);
    EXPECT_EQ(EvaluateSentence(b, f), canonical_query.SatisfiedBy(b));
  }
}

TEST(Cqk, UnusedQuantifiedVariableKeptAsElement) {
  FormulaPtr f = MustParse("exists x exists y E(x,x)");
  auto result = CqkCanonicalStructure(f, GraphVocabulary(), 2);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->structure.UniverseSize(), 2);  // y kept, isolated
  // On the empty structure both are false; on a loop both are true.
  Structure empty(GraphVocabulary(), 0);
  ConjunctiveQuery q = ConjunctiveQuery::BooleanQueryOf(result->structure);
  EXPECT_FALSE(q.SatisfiedBy(empty));
  EXPECT_FALSE(EvaluateSentence(empty, f));
}

TEST(Cqk, RejectsNonSentencesAndWrongShape) {
  EXPECT_FALSE(
      CqkCanonicalStructure(MustParse("E(x,y)"), GraphVocabulary(), 2)
          .has_value());
  EXPECT_FALSE(CqkCanonicalStructure(
                   MustParse("exists x (E(x,x) | E(x,x))"),
                   GraphVocabulary(), 2)
                   .has_value());
}

// Property: random CQ^k sentences produce valid canonical structures of
// treewidth < k that agree with direct evaluation.
class CqkProperty : public ::testing::TestWithParam<int> {};

TEST_P(CqkProperty, Lemma72OnRandomSentences) {
  Rng rng(static_cast<uint64_t>(1000 + GetParam()));
  const int k = 2 + GetParam() % 3;  // k in {2, 3, 4}
  FormulaPtr f = RandomCqkSentence(GraphVocabulary(), k, 5, rng);
  auto result = CqkCanonicalStructure(f, GraphVocabulary(), k);
  ASSERT_TRUE(result.has_value()) << f->ToString();
  EXPECT_LE(result->decomposition.Width(), k - 1);
  ConjunctiveQuery q = ConjunctiveQuery::BooleanQueryOf(result->structure);
  for (int trial = 0; trial < 8; ++trial) {
    Structure b =
        RandomStructure(GraphVocabulary(), 1 + trial % 3, 2 + trial, rng);
    EXPECT_EQ(EvaluateSentence(b, f), q.SatisfiedBy(b)) << f->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CqkProperty, ::testing::Range(0, 12));

// --- Differential test: the compiled evaluator against a tree walker. ---
//
// The oracle is the plain recursive Tarskian evaluator over a name ->
// element map, copied at every quantifier. Random formulas over
// {Z/0, P/1, E/2} with variables drawn from {x, y, z} exercise ¬, ∀, =,
// re-quantified (shadowed) variables, and free variables supplied
// through the Environment; random structures include the empty
// universe. The default seed is fixed; HOMPRES_TEST_SEED overrides it:
//
//   HOMPRES_TEST_SEED=<seed> ./fo_test --gtest_filter='CompiledEval*'

constexpr uint64_t kDefaultSeed = 20261017;

uint64_t TestSeed() {
  const char* env = std::getenv("HOMPRES_TEST_SEED");
  if (env == nullptr || *env == '\0') return kDefaultSeed;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (end == nullptr || *end != '\0') {
    ADD_FAILURE() << "HOMPRES_TEST_SEED is not a number: " << env;
    return kDefaultSeed;
  }
  return static_cast<uint64_t>(value);
}

bool OracleEvaluate(const Structure& s, const FormulaPtr& f,
                    const Environment& env) {
  switch (f->Kind()) {
    case FormulaKind::kAtom: {
      const auto rel = s.GetVocabulary().IndexOf(f->Relation());
      HOMPRES_CHECK(rel.has_value());
      Tuple t;
      for (const auto& v : f->Variables()) t.push_back(env.at(v));
      return s.HasTuple(*rel, t);
    }
    case FormulaKind::kEqual:
      return env.at(f->Variables()[0]) == env.at(f->Variables()[1]);
    case FormulaKind::kNot:
      return !OracleEvaluate(s, f->Children()[0], env);
    case FormulaKind::kAnd:
      for (const auto& child : f->Children()) {
        if (!OracleEvaluate(s, child, env)) return false;
      }
      return true;
    case FormulaKind::kOr:
      for (const auto& child : f->Children()) {
        if (OracleEvaluate(s, child, env)) return true;
      }
      return false;
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      const bool exists = f->Kind() == FormulaKind::kExists;
      Environment extended = env;
      for (int e = 0; e < s.UniverseSize(); ++e) {
        extended[f->Variables()[0]] = e;
        if (OracleEvaluate(s, f->Children()[0], extended) == exists) {
          return exists;
        }
      }
      return !exists;
    }
  }
  HOMPRES_CHECK(false);
  return false;
}

Vocabulary MixedVocabulary() {
  Vocabulary voc;
  voc.AddRelation("Z", 0);
  voc.AddRelation("P", 1);
  voc.AddRelation("E", 2);
  return voc;
}

std::string RandomVariable(Rng& rng) {
  static const char* const kNames[] = {"x", "y", "z"};
  return kNames[rng.Uniform(3)];
}

FormulaPtr RandomFormula(Rng& rng, int depth) {
  const int kind = static_cast<int>(rng.Uniform(depth <= 0 ? 4 : 10));
  switch (kind) {
    case 0:
      return Formula::Atom("Z", {});
    case 1:
      return Formula::Atom("P", {RandomVariable(rng)});
    case 2:
      return Formula::Atom("E", {RandomVariable(rng), RandomVariable(rng)});
    case 3: {
      // Named first: argument evaluation order is unspecified, and the
      // stream must replay identically from a seed on every compiler.
      std::string left = RandomVariable(rng);
      return Formula::Equal(std::move(left), RandomVariable(rng));
    }
    case 4:
      return Formula::Not(RandomFormula(rng, depth - 1));
    case 5:
    case 6: {
      std::vector<FormulaPtr> children;
      const int count = rng.UniformInt(1, 3);
      for (int i = 0; i < count; ++i) {
        children.push_back(RandomFormula(rng, depth - 1));
      }
      return kind == 5 ? Formula::And(std::move(children))
                       : Formula::Or(std::move(children));
    }
    case 7:
    case 8: {
      std::string variable = RandomVariable(rng);
      FormulaPtr body = RandomFormula(rng, depth - 1);
      return Formula::Exists(std::move(variable), std::move(body));
    }
    default: {
      std::string variable = RandomVariable(rng);
      FormulaPtr body = RandomFormula(rng, depth - 1);
      return Formula::Forall(std::move(variable), std::move(body));
    }
  }
}

// Every possible tuple present with probability 1/2.
Structure RandomMixedStructure(int n, Rng& rng) {
  const Vocabulary voc = MixedVocabulary();
  Structure s(voc, n);
  for (int rel = 0; rel < voc.NumRelations(); ++rel) {
    ForEachTuple(n, voc.Arity(rel), [&](const std::vector<int>& t) {
      if (rng.Bernoulli(0.5)) s.AddTuple(rel, t);
      return true;
    });
  }
  return s;
}

TEST(CompiledEval, AgreesWithTreeWalkerOnRandomFormulas) {
  const uint64_t seed = TestSeed();
  Rng rng(seed);
  for (int trial = 0; trial < 3000; ++trial) {
    const FormulaPtr f = RandomFormula(rng, 4);
    const int n = rng.UniformInt(0, 3);
    const Structure s = RandomMixedStructure(n, rng);
    // Free variables get elements from the Environment; the empty
    // universe has no elements to give, so there f is closed first.
    FormulaPtr closed = f;
    Environment env;
    for (const std::string& v : FreeVariables(f)) {
      if (n == 0) {
        closed = rng.Bernoulli(0.5) ? Formula::Exists(v, closed)
                                    : Formula::Forall(v, closed);
      } else {
        env[v] = rng.UniformInt(0, n - 1);
      }
    }
    const bool expected = OracleEvaluate(s, closed, env);
    EXPECT_EQ(Evaluate(s, closed, env), expected)
        << "seed " << seed << " trial " << trial << ": " << closed->ToString()
        << " on " << s.DebugString();
    if (env.empty()) {
      EXPECT_EQ(EvaluateSentence(s, closed), expected)
          << "seed " << seed << " trial " << trial << ": "
          << closed->ToString();
    }
    // One compiled form, many structures.
    const CompiledSentence compiled(closed, MixedVocabulary(), env);
    for (int other = 0; other < 3; ++other) {
      const Structure t = RandomMixedStructure(n, rng);
      EXPECT_EQ(compiled.Evaluate(t), OracleEvaluate(t, closed, env))
          << "seed " << seed << " trial " << trial << ": "
          << closed->ToString() << " on " << t.DebugString();
    }
  }
}

TEST(CompiledEval, ShadowedVariablesKeepTheOuterBinding) {
  // The inner ∃x must not clobber the outer x, and y stays the
  // Environment's element throughout.
  const FormulaPtr f =
      MustParse("exists x (E(x,x) & exists x E(x,y) & E(x,x))");
  Structure s(GraphVocabulary(), 3);
  s.AddTuple(0, {0, 0});  // the outer witness: a loop at 0
  s.AddTuple(0, {2, 1});  // the inner witness: an edge into y = 1
  const Environment env = {{"y", 1}};
  EXPECT_TRUE(Evaluate(s, f, env));
  EXPECT_EQ(Evaluate(s, f, env), OracleEvaluate(s, f, env));
  const Environment other = {{"y", 0}};  // only 0 -> 0 enters 0: still true
  EXPECT_TRUE(Evaluate(s, f, other));
  const Environment none = {{"y", 2}};  // nothing enters 2
  EXPECT_FALSE(Evaluate(s, f, none));
  EXPECT_EQ(Evaluate(s, f, none), OracleEvaluate(s, f, none));
  // Every structure of universe <= 2 over E, with y bound everywhere.
  for (int n = 1; n <= 2; ++n) {
    for (int mask = 0; mask < 1 << (n * n); ++mask) {
      Structure t(GraphVocabulary(), n);
      for (int bit = 0; bit < n * n; ++bit) {
        if ((mask >> bit & 1) != 0) t.AddTuple(0, {bit / n, bit % n});
      }
      for (int y = 0; y < n; ++y) {
        const Environment bound = {{"y", y}};
        EXPECT_EQ(Evaluate(t, f, bound), OracleEvaluate(t, f, bound))
            << t.DebugString() << " y=" << y;
      }
    }
  }
}

TEST(CompiledEval, EmptyUniverse) {
  const Structure empty(MixedVocabulary(), 0);
  EXPECT_FALSE(EvaluateSentence(empty, MustParse("exists x (x = x)")));
  EXPECT_TRUE(EvaluateSentence(empty, MustParse("forall x !(x = x)")));
  EXPECT_TRUE(EvaluateSentence(empty, MustParse("forall x exists y E(x,y)")));
  EXPECT_FALSE(EvaluateSentence(empty, MustParse("exists x forall y P(y)")));
  EXPECT_FALSE(EvaluateSentence(empty, Formula::Atom("Z", {})));
  Structure z(MixedVocabulary(), 0);
  z.AddTuple(0, {});
  EXPECT_TRUE(EvaluateSentence(z, Formula::Atom("Z", {})));
}

TEST(CompiledEval, FreeVariablesFromTheEnvironment) {
  const FormulaPtr f = MustParse("E(x,y) & !P(x) | x = y");
  const CompiledSentence compiled(f, MixedVocabulary(),
                                  {{"x", 1}, {"y", 2}, {"unused", 0}});
  Structure s(MixedVocabulary(), 3);
  EXPECT_FALSE(compiled.Evaluate(s));
  s.AddTuple(2, {1, 2});
  EXPECT_TRUE(compiled.Evaluate(s));
  s.AddTuple(1, {1});
  EXPECT_FALSE(compiled.Evaluate(s));
  EXPECT_TRUE(Evaluate(s, f, {{"x", 0}, {"y", 0}}));
}

}  // namespace
}  // namespace hompres
