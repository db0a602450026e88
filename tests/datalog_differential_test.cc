// Randomized differential testing of the Datalog evaluators.
//
// Every trial draws a random safe program (EDB U/1, E/2; IDB P/1, Q/2,
// sometimes with inequality constraints) and a random EDB structure, then
// checks that the compiled/indexed executor and the interpretive scan
// oracle (datalog_scan_oracle.h) agree on fixpoints, stage counts, and
// every finite stage, that naive and semi-naive agree with each other,
// that the parallel fan-out matches the serial run, and that the indexed
// executor never enumerates more assignments than the scan. Replays like
// property_hom_test: HOMPRES_TEST_SEED=<seed> ./datalog_differential_test.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "datalog_scan_oracle.h"
#include "structure/generators.h"
#include "structure/structure.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

constexpr uint64_t kDefaultSeed = 20260806;

uint64_t TestSeed() {
  const char* env = std::getenv("HOMPRES_TEST_SEED");
  if (env == nullptr || *env == '\0') return kDefaultSeed;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

Vocabulary EdbVocabulary() {
  Vocabulary voc;
  voc.AddRelation("U", 1);
  voc.AddRelation("E", 2);
  return voc;
}

// A random safe program over EDB {U/1, E/2} and IDB {P/1, Q/2}: bodies
// mix EDB and IDB atoms over a small variable pool, heads use body
// variables only (safety), and some rules carry an inequality between
// two distinct body variables (the Datalog(≠) extension).
DatalogProgram RandomProgram(Rng& rng, bool allow_inequalities) {
  const std::vector<std::string> pool = {"x", "y", "z", "w"};
  struct Pred {
    std::string name;
    int arity;
  };
  const std::vector<Pred> body_preds = {
      {"U", 1}, {"E", 2}, {"P", 1}, {"Q", 2}};
  const std::vector<Pred> head_preds = {{"P", 1}, {"Q", 2}};
  std::vector<DatalogRule> rules;
  // Base rules keep P and Q derivable (and, more importantly, make them
  // IDB predicates no matter which heads the random rules draw — body
  // atoms over P/Q would otherwise name a predicate of neither
  // vocabulary).
  rules.push_back(DatalogRule{{"P", {"x"}}, {{"U", {"x"}}}});
  rules.push_back(DatalogRule{{"Q", {"x", "y"}}, {{"E", {"x", "y"}}}});
  const int num_rules = rng.UniformInt(1, 4);
  for (int r = 0; r < num_rules; ++r) {
    DatalogRule rule;
    const int num_atoms = rng.UniformInt(1, 3);
    std::vector<std::string> body_vars;
    for (int i = 0; i < num_atoms; ++i) {
      const Pred& p = body_preds[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(body_preds.size()) - 1))];
      DatalogAtom atom;
      atom.relation = p.name;
      for (int j = 0; j < p.arity; ++j) {
        const std::string& v = pool[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int>(pool.size()) - 1))];
        atom.arguments.push_back(v);
        body_vars.push_back(v);
      }
      rule.body.push_back(std::move(atom));
    }
    const Pred& head = head_preds[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(head_preds.size()) - 1))];
    rule.head.relation = head.name;
    for (int j = 0; j < head.arity; ++j) {
      rule.head.arguments.push_back(body_vars[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(body_vars.size()) - 1))]);
    }
    if (allow_inequalities && rng.UniformInt(0, 3) == 0) {
      const std::string& a = body_vars[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(body_vars.size()) - 1))];
      const std::string& b = body_vars[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(body_vars.size()) - 1))];
      if (a != b) rule.inequalities.emplace_back(a, b);
    }
    rules.push_back(std::move(rule));
  }
  return DatalogProgram(EdbVocabulary(), std::move(rules));
}

std::string Replay(uint64_t seed, int trial, const DatalogProgram& program,
                   const Structure& edb) {
  return "replay: HOMPRES_TEST_SEED=" + std::to_string(seed) + " (trial " +
         std::to_string(trial) + ")\nprogram:\n" + program.DebugString() +
         "\nedb: " + edb.DebugString();
}

TEST(DatalogDifferential, IndexedAndScanEnginesAgree) {
  const uint64_t seed = TestSeed();
  Rng rng(seed);
  // Work-measure totals across all trials. Per trial the greedy atom
  // reorder can visit a handful more candidates than the original order
  // on tiny inputs; in aggregate the indexed engine must do less work.
  long long semi_idx_total = 0;
  long long semi_scan_total = 0;
  long long naive_idx_total = 0;
  long long naive_scan_total = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const DatalogProgram program =
        RandomProgram(rng, /*allow_inequalities=*/true);
    const int n = rng.UniformInt(1, 5);
    const Structure edb =
        RandomStructure(EdbVocabulary(), n, rng.UniformInt(0, 3 * n), rng);

    const DatalogResult semi_idx = EvaluateSemiNaive(program, edb);
    const DatalogResult semi_scan = ScanEvaluateSemiNaive(program, edb);
    ASSERT_EQ(semi_idx.idb, semi_scan.idb)
        << "semi-naive fixpoint differs\n" << Replay(seed, trial, program, edb);
    ASSERT_EQ(semi_idx.stages, semi_scan.stages)
        << "semi-naive stage count differs\n"
        << Replay(seed, trial, program, edb);
    semi_idx_total += semi_idx.derivations;
    semi_scan_total += semi_scan.derivations;

    const DatalogResult naive_idx = EvaluateNaive(program, edb);
    const DatalogResult naive_scan = ScanEvaluateNaive(program, edb);
    ASSERT_EQ(naive_idx.idb, naive_scan.idb)
        << "naive fixpoint differs\n" << Replay(seed, trial, program, edb);
    ASSERT_EQ(naive_idx.idb, semi_idx.idb)
        << "naive and semi-naive fixpoints differ\n"
        << Replay(seed, trial, program, edb);
    ASSERT_EQ(naive_idx.stages, naive_scan.stages);
    naive_idx_total += naive_idx.derivations;
    naive_scan_total += naive_scan.derivations;

    for (int m = 0; m <= 3; ++m) {
      ASSERT_EQ(Stage(program, edb, m), ScanStage(program, edb, m))
          << "stage " << m << " differs\n"
          << Replay(seed, trial, program, edb);
    }
  }
  EXPECT_LE(semi_idx_total, semi_scan_total)
      << "indexed semi-naive did more aggregate work than the scan";
  EXPECT_LE(naive_idx_total, naive_scan_total)
      << "indexed naive did more aggregate work than the scan";
}

// The scan oracle is serial, so only the executor has a parallel leg.
TEST(DatalogDifferential, ParallelMatchesSerial) {
  const uint64_t seed = TestSeed() ^ 0x9E3779B97F4A7C15ULL;
  Rng rng(seed);
  for (int trial = 0; trial < 60; ++trial) {
    const DatalogProgram program =
        RandomProgram(rng, /*allow_inequalities=*/true);
    const int n = rng.UniformInt(1, 5);
    const Structure edb =
        RandomStructure(EdbVocabulary(), n, rng.UniformInt(0, 3 * n), rng);
    const DatalogResult s = EvaluateSemiNaive(program, edb);
    const DatalogResult p =
        EvaluateSemiNaive(program, edb, DatalogEvalOptions(3));
    ASSERT_EQ(s.idb, p.idb) << Replay(seed, trial, program, edb);
    ASSERT_EQ(s.stages, p.stages);
    ASSERT_EQ(s.derivations, p.derivations)
        << "parallel derivation count diverged\n"
        << Replay(seed, trial, program, edb);
  }
}

TEST(DatalogDifferential, DerivationCountsAreDeterministic) {
  const uint64_t seed = TestSeed() ^ 0xBF58476D1CE4E5B9ULL;
  Rng rng(seed);
  for (int trial = 0; trial < 30; ++trial) {
    const DatalogProgram program =
        RandomProgram(rng, /*allow_inequalities=*/true);
    const int n = rng.UniformInt(1, 4);
    const Structure edb =
        RandomStructure(EdbVocabulary(), n, rng.UniformInt(0, 3 * n), rng);
    const DatalogResult first = EvaluateSemiNaive(program, edb);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const DatalogResult again = EvaluateSemiNaive(program, edb);
      ASSERT_EQ(first.idb, again.idb);
      ASSERT_EQ(first.derivations, again.derivations)
          << Replay(seed, trial, program, edb);
    }
  }
}

// Mutating the EDB after its index was built must not leave the indexed
// evaluator reading stale lists: it must agree with a fresh copy that
// never built an index.
TEST(DatalogDifferential, MutationAfterIndexBuildInvalidatesCache) {
  const uint64_t seed = TestSeed() ^ 0x94D049BB133111EBULL;
  Rng rng(seed);
  for (int trial = 0; trial < 40; ++trial) {
    const DatalogProgram program =
        RandomProgram(rng, /*allow_inequalities=*/true);
    const int n = rng.UniformInt(2, 5);
    Structure edb =
        RandomStructure(EdbVocabulary(), n, rng.UniformInt(0, 2 * n), rng);
    (void)edb.Index();
    if (trial % 2 == 0) {
      const int u = rng.UniformInt(0, edb.UniverseSize() - 1);
      const int v = rng.UniformInt(0, edb.UniverseSize() - 1);
      if (!edb.HasTuple(1, {u, v})) edb.AddTuple(1, {u, v});
    } else {
      const int fresh = edb.AddElement();
      edb.AddTuple(0, {fresh});
      edb.AddTuple(1, {fresh, rng.UniformInt(0, fresh)});
    }
    const Structure pristine = edb;
    const DatalogResult mutated = EvaluateSemiNaive(program, edb);
    const DatalogResult expected = EvaluateSemiNaive(program, pristine);
    ASSERT_EQ(mutated.idb, expected.idb)
        << "stale index after mutation\n"
        << Replay(seed, trial, program, edb);
    ASSERT_EQ(mutated.derivations, expected.derivations);
  }
}

// The transitive-closure program on a path: a fixed smoke check that the
// indexed engine's work measure actually drops (the scan enumerates the
// full E x T cross product per round; the index binds the join variable).
TEST(DatalogDifferential, IndexedEngineDoesLessWorkOnTransitiveClosure) {
  const DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Vocabulary voc;
  voc.AddRelation("E", 2);
  Structure path(voc, 24);
  for (int i = 0; i + 1 < 24; ++i) path.AddTuple(0, {i, i + 1});
  const DatalogResult idx = EvaluateSemiNaive(tc, path);
  const DatalogResult ref = ScanEvaluateSemiNaive(tc, path);
  ASSERT_EQ(idx.idb, ref.idb);
  ASSERT_EQ(idx.stages, ref.stages);
  EXPECT_LT(idx.derivations * 4, ref.derivations)
      << "indexed=" << idx.derivations << " scan=" << ref.derivations;
}

}  // namespace
}  // namespace hompres
