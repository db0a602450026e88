// Differential test of the memoized structure space (core/structure_space.h)
// against the brute-force search it replaced.
//
// The oracle below is that algorithm, kept verbatim in spirit: build every
// structure of every universe size from a tuple mask, one budget step per
// structure; check class membership and q directly on each; confirm
// minimality with the structure-level IsMinimalModelBudgeted (which copies
// each one-step substructure and re-asks the class and q); then optimize
// and run a second, independent verification scan. For every case the
// pipeline's results must match the oracle's at every step cap from 1 to
// the uncapped total: outcome, stop reason, steps used, the partial model
// list, the model list in order, the optimized UCQ and `verified`.

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/check.h"
#include "base/subsets.h"
#include "core/classes.h"
#include "core/extension_preservation.h"
#include "core/minimal_models.h"
#include "core/preservation.h"
#include "core/structure_space.h"
#include "cq/cq.h"
#include "fo/eval.h"
#include "fo/parser.h"
#include "hom/hom_cache.h"
#include "opt/containment_cache.h"
#include "opt/optimizer.h"
#include "structure/isomorphism.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

// --- The oracle: the pre-space enumeration and pipeline. ---

bool OracleForEachOfSize(const Vocabulary& vocabulary, int n, Budget& budget,
                         const std::function<bool(const Structure&)>& fn) {
  std::vector<std::pair<int, Tuple>> space;
  for (int rel = 0; rel < vocabulary.NumRelations(); ++rel) {
    ForEachTuple(n, vocabulary.Arity(rel), [&](const std::vector<int>& t) {
      space.emplace_back(rel, t);
      return true;
    });
  }
  HOMPRES_CHECK_LE(space.size(), 24u);
  for (uint64_t mask = 0; mask < (uint64_t{1} << space.size()); ++mask) {
    if (!budget.Checkpoint()) return false;
    Structure a(vocabulary, n);
    for (size_t bit = 0; bit < space.size(); ++bit) {
      if ((mask >> bit & 1) != 0) {
        a.AddTuple(space[bit].first, space[bit].second);
      }
    }
    if (!fn(a)) return false;
  }
  return true;
}

Outcome<bool> OracleForEachInClass(
    const Vocabulary& vocabulary, int max_universe, const StructureClass& c,
    Budget& budget, const std::function<bool(const Structure&)>& fn) {
  for (int n = 0; n <= max_universe; ++n) {
    const bool completed =
        OracleForEachOfSize(vocabulary, n, budget, [&](const Structure& a) {
          return !c.contains(a) || fn(a);
        });
    if (budget.Stopped()) return Outcome<bool>::StoppedShort(budget.Report());
    if (!completed) return Outcome<bool>::Done(false, budget.Report());
  }
  return Outcome<bool>::Done(true, budget.Report());
}

Outcome<std::vector<Structure>> OracleMinimalModels(
    const BooleanQuery& q, const Vocabulary& vocabulary,
    const StructureClass& c, int max_universe, Budget& budget,
    std::vector<Structure>* partial) {
  std::vector<Structure> models;
  if (partial != nullptr) partial->clear();
  auto scan = OracleForEachInClass(
      vocabulary, max_universe, c, budget, [&](const Structure& a) {
        if (!q(a)) return true;
        auto minimal = IsMinimalModelBudgeted(q, a, c, budget);
        if (!minimal.IsDone()) return false;
        if (!minimal.Value()) return true;
        for (const Structure& seen : models) {
          if (AreIsomorphic(seen, a)) return true;
        }
        models.push_back(a);
        if (partial != nullptr) partial->push_back(a);
        return true;
      });
  if (!scan.IsDone()) {
    return Outcome<std::vector<Structure>>::StoppedShort(budget.Report());
  }
  return Outcome<std::vector<Structure>>::Done(std::move(models),
                                               budget.Report());
}

Outcome<PreservationResult> OraclePipeline(
    const BooleanQuery& q, const Vocabulary& vocabulary,
    const StructureClass& c, int search_universe, int verify_universe,
    Budget& budget, std::vector<Structure>* partial) {
  using Result = Outcome<PreservationResult>;
  PreservationResult result;
  result.search_universe = search_universe;
  result.verify_universe = verify_universe;
  auto search = OracleMinimalModels(q, vocabulary, c, search_universe,
                                    budget, partial);
  if (!search.IsDone()) return Result::StoppedShort(budget.Report());
  result.minimal_models = std::move(search).TakeValue();
  result.equivalent_ucq = OptimizeUcqBudgeted(
      UcqFromMinimalModels(result.minimal_models), budget);
  if (budget.Stopped()) return Result::StoppedShort(budget.Report());
  bool all_agree = true;
  auto scan = OracleForEachInClass(
      vocabulary, verify_universe, c, budget, [&](const Structure& a) {
        all_agree = q(a) == result.equivalent_ucq.SatisfiedBy(a);
        return all_agree;
      });
  if (!scan.IsDone()) return Result::StoppedShort(budget.Report());
  result.verified = all_agree;
  return Result::Done(std::move(result), budget.Report());
}

// --- Cases. ---

Vocabulary NullaryUnaryVocabulary() {
  Vocabulary voc;
  voc.AddRelation("Z", 0);
  voc.AddRelation("P", 1);
  return voc;
}

Vocabulary MixedVocabulary() {
  Vocabulary voc = NullaryUnaryVocabulary();
  voc.AddRelation("E", 2);
  return voc;
}

std::vector<StructureClass> Classes() {
  return {AllStructuresClass(), BoundedDegreeClass(2),
          BoundedTreewidthClass(2), ExcludesMinorClass(4),
          CoresBoundedDegreeClass(1)};
}

FormulaPtr MustParse(const std::string& text) {
  std::string error;
  auto f = ParseFormula(text, &error);
  HOMPRES_CHECK(f.has_value());
  return *f;
}

struct Case {
  std::string label;
  Vocabulary vocabulary;
  FormulaPtr sentence;
  int search_universe;
  int verify_universe;
  // The classes to sweep; empty = all of Classes().
  std::vector<StructureClass> classes = {};
};

// Every case here is cheap enough to sweep every step cap: the graph
// vocabulary stays at universe 2, the {Z/0, P/1} cases (16 structures at
// universe 3) cover verify > search, and the {Z/0, P/1, E/2} cases (128
// structures at universe 2) skip the cores class, which computes a core
// per structure and would take seconds there. The {P/1} cases (63
// structures up to universe 5) reach levels that keep the per-mask memo.
std::vector<Case> Cases() {
  const Vocabulary graph = GraphVocabulary();
  const FormulaPtr z = Formula::Atom("Z", {});
  const FormulaPtr some_p = Formula::Exists("x", Formula::Atom("P", {"x"}));
  const FormulaPtr loop = MustParse("exists x E(x,x)");
  const FormulaPtr p_pair =
      MustParse("exists x exists y (P(x) & P(y) & !(x = y))");
  const FormulaPtr p_quad = MustParse(
      "exists x exists y exists z exists w (P(x) & P(y) & P(z) & P(w) & "
      "!(x = y) & !(x = z) & !(x = w) & !(y = z) & !(y = w) & !(z = w))");
  Vocabulary unary;
  unary.AddRelation("P", 1);
  return {
      // Existential-positive sentences.
      {"edge", graph, MustParse("exists x exists y E(x,y)"), 2, 2},
      {"loop", graph, loop, 2, 2},
      {"2-cycle", graph, MustParse("exists x exists y (E(x,y) & E(y,x))"), 2,
       2},
      // Negative controls: not preserved under homomorphisms.
      {"all-loops", graph, MustParse("forall x E(x,x)"), 2, 2},
      {"some-non-loop", graph, MustParse("exists x !E(x,x)"), 2, 2},
      // A 0-ary and a unary relation: mask renumbering at arity 0 and 1.
      {"Z|P", NullaryUnaryVocabulary(), Formula::Or({z, some_p}), 2, 3},
      {"Z&P", NullaryUnaryVocabulary(), Formula::And({z, some_p}), 3, 3},
      {"P-pair", NullaryUnaryVocabulary(), p_pair, 2, 3},
      {"not-Z", NullaryUnaryVocabulary(), Formula::Not(z), 2, 3},
      {"Z|P|loop", MixedVocabulary(), Formula::Or({z, some_p, loop}), 2, 2,
       {AllStructuresClass(), BoundedTreewidthClass(2)}},
      {"Z&edge", MixedVocabulary(),
       Formula::And({z, MustParse("exists x exists y E(x,y)")}), 2, 2,
       {ExcludesMinorClass(4)}},
      // Searched at 1, verified at 2: q and the (empty) union disagree
      // only at P = {0, 1}, an orbit of one mask.
      {"P-pair", NullaryUnaryVocabulary(), p_pair, 1, 2},
      // One unary relation: level n has 2^n masks and n! permutations,
      // so levels 4 and 5 keep the per-mask memo. "P-quad" searched at 3
      // fails verification at level 4; the negative control "P, 3 not P"
      // has a minimal model there whose orbit has four masks.
      {"some-P", unary, some_p, 5, 5},
      {"P-pair", unary, p_pair, 5, 5},
      {"P-quad", unary, p_quad, 3, 5},
      {"P, 3 not P", unary,
       MustParse("(exists x P(x)) & (exists x exists y exists z (!P(x) & "
                 "!P(y) & !P(z) & !(x = y) & !(x = z) & !(y = z)))"),
       4, 5},
      {"all-P", unary, MustParse("forall x P(x)"), 5, 5},
  };
}

std::string Describe(const Case& test_case, const StructureClass& c,
                     uint64_t cap) {
  return test_case.label + " on " + c.name + " (search " +
         std::to_string(test_case.search_universe) + ", verify " +
         std::to_string(test_case.verify_universe) + ") at cap " +
         std::to_string(cap);
}

void ExpectSameModels(const std::vector<Structure>& got,
                      const std::vector<Structure>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i])
        << where << ": model " << i << " is " << got[i].DebugString()
        << ", oracle " << want[i].DebugString();
  }
}

void ExpectSameUcq(const UnionOfCq& got, const UnionOfCq& want,
                   const std::string& where) {
  ASSERT_EQ(got.Disjuncts().size(), want.Disjuncts().size()) << where;
  for (size_t i = 0; i < got.Disjuncts().size(); ++i) {
    EXPECT_TRUE(got.Disjuncts()[i].Canonical() ==
                want.Disjuncts()[i].Canonical())
        << where << ": disjunct " << i;
  }
}

// Both runs start from cold process-wide caches: a cached hom or
// containment answer costs the optimizer no steps, so whichever run went
// second would otherwise use fewer.
void ClearCaches() {
  HomCache::Global().Clear();
  ContainmentCache::Global().Clear();
}

// Runs the pipeline and the oracle under `cap` steps (0 = unlimited)
// and compares everything they report. Returns the oracle's steps.
uint64_t CompareAtCap(const Case& test_case, const StructureClass& c,
                      const BooleanQuery& q, uint64_t cap) {
  const std::string where = Describe(test_case, c, cap);
  Budget budget = cap == 0 ? Budget::Unlimited() : Budget::MaxSteps(cap);
  Budget oracle_budget =
      cap == 0 ? Budget::Unlimited() : Budget::MaxSteps(cap);
  std::vector<Structure> partial;
  std::vector<Structure> oracle_partial;
  ClearCaches();
  auto got = PreservationPipelineBudgeted(
      q, test_case.vocabulary, c, test_case.search_universe,
      test_case.verify_universe, budget, &partial);
  ClearCaches();
  auto want = OraclePipeline(q, test_case.vocabulary, c,
                             test_case.search_universe,
                             test_case.verify_universe, oracle_budget,
                             &oracle_partial);
  EXPECT_EQ(got.IsDone(), want.IsDone()) << where;
  EXPECT_EQ(got.Report().reason, want.Report().reason) << where;
  EXPECT_EQ(got.Report().steps_used, want.Report().steps_used) << where;
  ExpectSameModels(partial, oracle_partial, where + " (partial)");
  if (got.IsDone() && want.IsDone()) {
    ExpectSameModels(got.Value().minimal_models, want.Value().minimal_models,
                     where);
    ExpectSameUcq(got.Value().equivalent_ucq, want.Value().equivalent_ucq,
                  where);
    EXPECT_EQ(got.Value().verified, want.Value().verified) << where;
  }
  return want.Report().steps_used;
}

std::vector<StructureClass> ClassesOf(const Case& test_case) {
  return test_case.classes.empty() ? Classes() : test_case.classes;
}

TEST(StructureSpaceDifferential, PipelineMatchesOracleAtEveryStepCap) {
  int sweeps = 0;
  int expected = 0;
  for (const Case& test_case : Cases()) {
    const CompiledSentence compiled(test_case.sentence, test_case.vocabulary);
    const BooleanQuery q = [&compiled](const Structure& a) {
      return compiled.Evaluate(a);
    };
    expected += static_cast<int>(ClassesOf(test_case).size());
    for (const StructureClass& c : ClassesOf(test_case)) {
      const uint64_t total = CompareAtCap(test_case, c, q, 0);
      ASSERT_GT(total, 0u);
      for (uint64_t cap = 1; cap <= total; ++cap) {
        CompareAtCap(test_case, c, q, cap);
        if (HasFailure()) return;  // one mismatch tells the story
      }
      ++sweeps;
    }
  }
  EXPECT_EQ(sweeps, expected);
}

// Universe 3 on the graph vocabulary, verify > search and verify ==
// search, for EP sentences and a negative control. A run here is
// thousands of steps and a few ms, and a sweep costs the square of that,
// so the caps are sampled: every cap up to 256 and in the last 16, every
// 5th cap through the rest of the search and the optimizer, and every
// 11th through the verification scan (one step per structure).
TEST(StructureSpaceDifferential, GraphUniverseThreeSweep) {
  struct Run {
    Case test_case;
    StructureClass c;
  };
  const FormulaPtr two_path =
      MustParse("exists x exists y exists z (E(x,y) & E(y,z))");
  const std::vector<Run> runs = {
      // Verifies: the whole universe-3 scan runs.
      {{"2-cycle", GraphVocabulary(),
        MustParse("exists x exists y (E(x,y) & E(y,x))"), 2, 3},
       BoundedTreewidthClass(2)},
      // The benchmark's shape: search and verify at 3.
      {{"2-path", GraphVocabulary(), two_path, 3, 3}, BoundedDegreeClass(2)},
      // Universe-2 models miss the 3-element path: verification stops
      // at the first disagreement.
      {{"2-path", GraphVocabulary(), two_path, 2, 3}, ExcludesMinorClass(4)},
      // Negative control searched at 3.
      {{"all-loops", GraphVocabulary(), MustParse("forall x E(x,x)"), 3, 3},
       AllStructuresClass()},
  };
  for (const Run& run : runs) {
    const Case& test_case = run.test_case;
    const CompiledSentence compiled(test_case.sentence, test_case.vocabulary);
    const BooleanQuery q = [&compiled](const Structure& a) {
      return compiled.Evaluate(a);
    };
    const uint64_t total = CompareAtCap(test_case, run.c, q, 0);
    // The verification scan is the last 2^0 + 2^1 + 2^4 + 2^9 steps at
    // verify universe 3 (or fewer, when it stops at a disagreement).
    const uint64_t verify_steps = test_case.verify_universe == 3 ? 531 : 19;
    const uint64_t verify_from =
        total > verify_steps ? total - verify_steps : 0;
    for (uint64_t cap = 1; cap <= total; ++cap) {
      const uint64_t stride = cap < verify_from ? 5 : 11;
      if (cap > 256 && cap + 16 < total && cap % stride != 0) continue;
      CompareAtCap(test_case, run.c, q, cap);
      if (HasFailure()) return;
    }
  }
}

// The memo's promise: q runs at most once per distinct structure, across
// the search, the minimality checks and the verification scan.
TEST(StructureSpaceDifferential, QueryRunsOncePerStructure) {
  for (const Case& test_case : Cases()) {
    const CompiledSentence compiled(test_case.sentence, test_case.vocabulary);
    for (const StructureClass& c : ClassesOf(test_case)) {
      std::map<std::string, int> calls;
      const BooleanQuery counting = [&](const Structure& a) {
        ++calls[a.DebugString()];
        return compiled.Evaluate(a);
      };
      Budget budget = Budget::Unlimited();
      ASSERT_TRUE(PreservationPipelineBudgeted(
                      counting, test_case.vocabulary, c,
                      test_case.search_universe, test_case.verify_universe,
                      budget)
                      .IsDone());
      ASSERT_FALSE(calls.empty());
      for (const auto& [structure, count] : calls) {
        EXPECT_EQ(count, 1) << test_case.label << " on " << c.name << ": "
                            << structure;
      }
    }
  }
}

// The Section 8 pipeline on the same space: answers identical to a scan
// with the structure-level IsExtensionMinimalModel (whose element
// removals drop the removed element's tuples too).
TEST(StructureSpaceDifferential, ExtensionSearchMatchesStructureLevelCheck) {
  for (const Case& test_case : Cases()) {
    const CompiledSentence compiled(test_case.sentence, test_case.vocabulary);
    const BooleanQuery q = [&compiled](const Structure& a) {
      return compiled.Evaluate(a);
    };
    for (const StructureClass& c : ClassesOf(test_case)) {
      std::vector<Structure> want;
      Budget unlimited = Budget::Unlimited();
      (void)OracleForEachInClass(
          test_case.vocabulary, test_case.verify_universe, c, unlimited,
          [&](const Structure& a) {
            if (!IsExtensionMinimalModel(q, a, c)) return true;
            for (const Structure& seen : want) {
              if (AreIsomorphic(seen, a)) return true;
            }
            want.push_back(a);
            return true;
          });
      ExpectSameModels(
          ExtensionMinimalModelsBySearch(q, test_case.vocabulary, c,
                                         test_case.verify_universe),
          want, test_case.label + " on " + c.name);
    }
  }
}

// The §8 pipeline compares q with its existential sentence once per
// orbit; its verdict must be the mask-by-mask one.
TEST(StructureSpaceDifferential, ExtensionVerificationMatchesEveryMaskCheck) {
  for (const Case& test_case : Cases()) {
    const CompiledSentence compiled(test_case.sentence, test_case.vocabulary);
    for (const StructureClass& c : ClassesOf(test_case)) {
      const ExtensionPreservationResult result = ExtensionPreservationPipeline(
          test_case.sentence, test_case.vocabulary, c,
          test_case.search_universe, test_case.verify_universe);
      std::optional<CompiledSentence> existential;
      if (!result.minimal_models.empty()) {
        existential.emplace(result.equivalent_existential,
                            test_case.vocabulary);
      }
      bool want = true;
      Budget unlimited = Budget::Unlimited();
      (void)OracleForEachInClass(
          test_case.vocabulary, test_case.verify_universe, c, unlimited,
          [&](const Structure& a) {
            want = compiled.Evaluate(a) ==
                   (existential.has_value() && existential->Evaluate(a));
            return want;
          });
      EXPECT_EQ(result.verified, want) << test_case.label << " on " << c.name;
    }
  }
}

// Canonical(n, a) == Canonical(n, b) exactly when the structures are
// isomorphic; the canonical mask is a fixed point, no larger than the
// mask, and keeps the 0-ary tuples. Covers orbit-keyed levels (graphs up
// to 3 elements, {Z/0, P/1, E/2} up to 2, {Z/0, P/1} up to 4) and a
// per-mask level ({Z/0, P/1} at 5 elements: 5! > 2^6 masks).
TEST(StructureSpace, CanonicalMaskMatchesIsomorphism) {
  const std::vector<std::pair<Vocabulary, int>> runs = {
      {GraphVocabulary(), 3},
      {MixedVocabulary(), 2},
      {NullaryUnaryVocabulary(), 5}};
  for (const auto& [vocabulary, max_universe] : runs) {
    StructureSpace space(vocabulary, AllStructuresClass());
    for (int n = 0; n <= max_universe; ++n) {
      int bits = 0;
      for (int rel = 0; rel < vocabulary.NumRelations(); ++rel) {
        int count = 1;
        for (int i = 0; i < vocabulary.Arity(rel); ++i) count *= n;
        bits += count;
      }
      const uint64_t limit = uint64_t{1} << bits;
      std::vector<Structure> structures;
      std::vector<uint64_t> canonical;
      for (uint64_t mask = 0; mask < limit; ++mask) {
        structures.push_back(space.At(n, mask));
        canonical.push_back(space.Canonical(n, mask));
        const uint64_t c = canonical.back();
        const std::string where = std::to_string(n) + "/" +
                                  std::to_string(mask) + " " +
                                  structures.back().DebugString();
        EXPECT_LE(c, mask) << where;
        EXPECT_EQ(space.Canonical(n, c), c) << where;
        EXPECT_EQ(space.IsCanonical(n, mask), c == mask) << where;
        const Structure& image = space.At(n, c);
        for (int rel = 0; rel < vocabulary.NumRelations(); ++rel) {
          if (vocabulary.Arity(rel) != 0) continue;
          EXPECT_EQ(image.HasTuple(rel, {}), structures.back().HasTuple(rel, {}))
              << where;
        }
      }
      for (uint64_t a = 0; a < limit; ++a) {
        for (uint64_t b = a + 1; b < limit; ++b) {
          ASSERT_EQ(canonical[a] == canonical[b],
                    AreIsomorphic(structures[a], structures[b]))
              << n << ": " << structures[a].DebugString() << " vs "
              << structures[b].DebugString();
        }
      }
    }
  }
}

// The orbit memo's promise: over the graph vocabulary at universe <= 3
// there are 1 + 2 + 10 + 104 = 117 isomorphism classes among the 531
// masks, and the pipeline asks the class and q once for each, on
// pairwise non-isomorphic structures.
TEST(StructureSpaceDifferential, QueryAndClassRunOncePerIsomorphismClass) {
  const CompiledSentence compiled(MustParse("exists x exists y E(x,y)"),
                                  GraphVocabulary());
  std::vector<Structure> asked_class;
  std::vector<Structure> asked_query;
  const StructureClass counting_class{"all", [&](const Structure& a) {
                                        asked_class.push_back(a);
                                        return true;
                                      }};
  const BooleanQuery counting_query = [&](const Structure& a) {
    asked_query.push_back(a);
    return compiled.Evaluate(a);
  };
  Budget budget = Budget::Unlimited();
  auto result = PreservationPipelineBudgeted(
      counting_query, GraphVocabulary(), counting_class, 3, 3, budget);
  ASSERT_TRUE(result.IsDone());
  EXPECT_TRUE(result.Value().verified);
  EXPECT_EQ(asked_class.size(), 117u);
  EXPECT_EQ(asked_query.size(), 117u);
  for (const std::vector<Structure>* asked : {&asked_class, &asked_query}) {
    for (size_t i = 0; i < asked->size(); ++i) {
      for (size_t j = i + 1; j < asked->size(); ++j) {
        ASSERT_FALSE(AreIsomorphic((*asked)[i], (*asked)[j]))
            << (*asked)[i].DebugString();
      }
    }
  }
}

// RemoveElement renumbers a mask exactly as Structure::RemoveElement
// renumbers the structure, at every arity.
TEST(StructureSpace, RemoveElementMatchesStructureRemoval) {
  StructureSpace space(MixedVocabulary(), AllStructuresClass());
  for (int n = 1; n <= 2; ++n) {
    const uint64_t limit = uint64_t{1} << (1 + n + n * n);
    for (uint64_t mask = 0; mask < limit; ++mask) {
      const Structure a = space.At(n, mask);
      for (int e = 0; e < n; ++e) {
        const uint64_t reduced = space.RemoveElement(n, mask, e);
        EXPECT_TRUE(space.At(n - 1, reduced) == a.RemoveElement(e))
            << a.DebugString() << " minus " << e;
      }
    }
  }
}

}  // namespace
}  // namespace hompres
