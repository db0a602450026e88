// Randomized update-stream differential testing of incremental Datalog
// view maintenance (datalog/incremental.h).
//
// Every trial draws a random safe program (EDB U/1, E/2; IDB P/1, Q/2,
// sometimes with inequality constraints) and a random EDB structure,
// then replays a random stream of StructureDeltas — tuple insertions,
// tuple deletions, element appends, duplicate/no-op edits — against a
// MaterializedView and against a from-scratch baseline (sequential
// Structure::Apply + EvaluateSemiNaive). At every step the maintained
// IDB must equal the refixpoint, the maintained base must equal (and
// fingerprint-match) the sequentially mutated structure, whichever of
// delta-insert / counting / DRed / bounded-UCQ the planner chose. A
// disagreement shrinks the stream (greedy delta and op removal while the
// disagreement persists) and prints the seed for replay:
//
//   HOMPRES_TEST_SEED=<seed> ./incremental_datalog_test

#include <cstdlib>
#include <map>
#include <utility>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/failpoint.h"
#include "base/rng.h"
#include "cq/ucq.h"
#include "datalog/eval.h"
#include "datalog/incremental.h"
#include "datalog/program.h"
#include "datalog/stages.h"
#include "engine/maintain.h"
#include "opt/optimizer.h"
#include "structure/delta.h"
#include "structure/generators.h"
#include "structure/structure.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

constexpr uint64_t kDefaultSeed = 20260808;

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

// A random safe program over EDB {U/1, E/2} and IDB {P/1, Q/2}; same
// shape as datalog_differential_test's generator, so the maintained
// strategies face recursion, stratified chains, and Datalog(≠) alike.
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

// A random edit script against the current state `s`: mostly inserts
// (sometimes duplicates), some removes (sometimes of absent tuples),
// occasional element appends — including ops that cancel within the
// script, so the net-delta computation is exercised.
StructureDelta RandomDelta(Rng& rng, const Structure& s, int min_ops = 1,
                           int max_ops = 6) {
  StructureDelta delta;
  const int ops = rng.UniformInt(min_ops, max_ops);
  for (int i = 0; i < ops; ++i) {
    const int kind = rng.UniformInt(0, 9);
    if (kind == 0) {
      delta.AppendElements(rng.UniformInt(0, 2));
      continue;
    }
    const int rel =
        rng.UniformInt(0, s.GetVocabulary().NumRelations() - 1);
    const int arity = s.GetVocabulary().Arity(rel);
    Tuple random_tuple;
    for (int j = 0; j < arity; ++j) {
      random_tuple.push_back(rng.UniformInt(0, s.UniverseSize() - 1));
    }
    if (kind <= 6) {
      delta.InsertTuple(rel, std::move(random_tuple));
    } else if (!s.Tuples(rel).empty() && rng.UniformInt(0, 1) == 0) {
      const auto& tuples = s.Tuples(rel);
      delta.RemoveTuple(
          rel, tuples[static_cast<size_t>(rng.UniformInt(
                   0, static_cast<int>(tuples.size()) - 1))]);
    } else {
      delta.RemoveTuple(rel, std::move(random_tuple));
    }
  }
  return delta;
}

// Replays the stream against a maintained view and the from-scratch
// baseline; returns the first step at which they disagree (0 =
// construction, k >= 1 = after stream[k-1]) or -1 when they agree
// throughout.
int FirstDisagreement(const DatalogProgram& program,
                      const Structure& initial,
                      const std::vector<StructureDelta>& stream,
                      const MaterializedViewOptions& options) {
  MaterializedView view(program, initial, options);
  Structure scratch = initial;
  if (view.Idb() != EvaluateSemiNaive(program, scratch).idb) return 0;
  for (size_t k = 0; k < stream.size(); ++k) {
    view.Apply(stream[k]);
    scratch.Apply(stream[k]);
    if (!(view.Base() == scratch) ||
        view.Base().Fingerprint() != scratch.Fingerprint() ||
        view.Idb() != EvaluateSemiNaive(program, scratch).idb) {
      return static_cast<int>(k) + 1;
    }
  }
  return -1;
}

StructureDelta WithoutOp(const StructureDelta& delta, size_t skip) {
  StructureDelta out;
  const auto& ops = delta.Ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == skip) continue;
    switch (ops[i].kind) {
      case DeltaOp::Kind::kInsertTuple:
        out.InsertTuple(ops[i].rel, ops[i].tuple);
        break;
      case DeltaOp::Kind::kRemoveTuple:
        out.RemoveTuple(ops[i].rel, ops[i].tuple);
        break;
      case DeltaOp::Kind::kAppendElements:
        out.AppendElements(ops[i].count);
        break;
    }
  }
  return out;
}

// Greedy shrink: drop whole deltas, then single ops, while the stream
// still produces a disagreement.
std::vector<StructureDelta> ShrinkStream(
    const DatalogProgram& program, const Structure& initial,
    std::vector<StructureDelta> stream,
    const MaterializedViewOptions& options) {
  const auto still_fails = [&](const std::vector<StructureDelta>& s) {
    return FirstDisagreement(program, initial, s, options) >= 0;
  };
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < stream.size() && !progress; ++i) {
      std::vector<StructureDelta> candidate = stream;
      candidate.erase(candidate.begin() + static_cast<long>(i));
      if (still_fails(candidate)) {
        stream = std::move(candidate);
        progress = true;
      }
    }
    for (size_t i = 0; i < stream.size() && !progress; ++i) {
      for (size_t j = 0; j < stream[i].Ops().size() && !progress; ++j) {
        std::vector<StructureDelta> candidate = stream;
        candidate[i] = WithoutOp(stream[i], j);
        if (still_fails(candidate)) {
          stream = std::move(candidate);
          progress = true;
        }
      }
    }
  }
  return stream;
}

std::string FailureReport(uint64_t seed, int trial,
                          const DatalogProgram& program,
                          const Structure& initial,
                          const std::vector<StructureDelta>& stream,
                          const MaterializedViewOptions& options) {
  const std::vector<StructureDelta> shrunk =
      ShrinkStream(program, initial, stream, options);
  std::string report =
      "maintained view disagrees with the from-scratch baseline\n"
      "replay: HOMPRES_TEST_SEED=" +
      std::to_string(seed) + " (trial " + std::to_string(trial) + ")\n" +
      "program:\n" + program.DebugString() +
      "\ninitial: " + initial.DebugString() + "\nshrunken stream (" +
      std::to_string(shrunk.size()) + " deltas, first disagreement step " +
      std::to_string(FirstDisagreement(program, initial, shrunk, options)) +
      "):";
  for (const StructureDelta& delta : shrunk) {
    report += "\n  " + delta.DebugString(initial.GetVocabulary());
  }
  return report;
}

TEST(IncrementalDatalog, MaintainedMatchesFromScratchOnRandomStreams) {
  const uint64_t seed = TestSeed();
  Rng rng(seed);
  for (int trial = 0; trial < 40; ++trial) {
    const DatalogProgram program =
        RandomProgram(rng, /*allow_inequalities=*/true);
    const int n = rng.UniformInt(1, 4);
    const Structure initial =
        RandomStructure(EdbVocabulary(), n, rng.UniformInt(0, 3 * n), rng);
    MaterializedViewOptions options;
    // Half the trials certify boundedness (the short-circuit path), half
    // skip the probe so recursion-free programs exercise counting.
    options.max_bounded_stage = trial % 2 == 0 ? 2 : 0;
    std::vector<StructureDelta> stream;
    {
      // Deltas are drawn against the evolving state, so removals can hit
      // existing tuples and appended elements become insert candidates.
      Structure evolving = initial;
      const int steps = rng.UniformInt(1, 5);
      for (int k = 0; k < steps; ++k) {
        stream.push_back(RandomDelta(rng, evolving));
        evolving.Apply(stream.back());
      }
    }
    ASSERT_EQ(FirstDisagreement(program, initial, stream, options), -1)
        << FailureReport(seed, trial, program, initial, stream, options);
  }
}

TEST(IncrementalDatalog, TenSeedSweepStaysBitIdentical) {
  // The acceptance sweep: ten derived seeds, each replaying a stream
  // against every strategy family the planner can choose, requiring the
  // maintained base to stay fingerprint-identical to the sequential
  // Structure::Apply and the IDB to match the refixpoint at every step.
  const uint64_t base_seed = TestSeed() ^ 0x9E3779B97F4A7C15ULL;
  for (int s = 0; s < 10; ++s) {
    Rng rng(base_seed + static_cast<uint64_t>(s));
    const DatalogProgram program =
        RandomProgram(rng, /*allow_inequalities=*/s % 3 == 0);
    const int n = rng.UniformInt(2, 4);
    const Structure initial =
        RandomStructure(EdbVocabulary(), n, rng.UniformInt(n, 3 * n), rng);
    MaterializedViewOptions options;
    options.max_bounded_stage = s % 2 == 0 ? 2 : 0;
    std::vector<StructureDelta> stream;
    Structure evolving = initial;
    for (int k = 0; k < 4; ++k) {
      stream.push_back(RandomDelta(rng, evolving));
      evolving.Apply(stream.back());
    }
    ASSERT_EQ(FirstDisagreement(program, initial, stream, options), -1)
        << FailureReport(base_seed + static_cast<uint64_t>(s), s, program,
                         initial, stream, options);
  }
}

TEST(IncrementalDatalog, PlannerChoosesTheExpectedStrategies) {
  // Transitive closure: recursive, unbounded. Insert-only deltas run
  // delta-insert; any removal runs DRed.
  const DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Vocabulary evoc;
  evoc.AddRelation("E", 2);
  Structure chain(evoc, 5);
  for (int i = 0; i + 1 < 5; ++i) chain.AddTuple(0, {i, i + 1});

  MaterializedView view(tc, chain);
  EXPECT_TRUE(view.Recursive());
  EXPECT_FALSE(view.Bounded());

  StructureDelta insert;
  insert.InsertTuple(0, {4, 0});
  ViewMaintenanceStats stats = view.Apply(insert);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kDeltaInsert);
  EXPECT_FALSE(stats.recomputed);
  EXPECT_GT(stats.idb_inserted, 0);

  StructureDelta remove;
  remove.RemoveTuple(0, {4, 0});
  stats = view.Apply(remove);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kDRed);
  EXPECT_FALSE(stats.recomputed);
  EXPECT_GT(stats.idb_removed, 0);

  StructureDelta noop;
  noop.InsertTuple(0, {0, 1});  // already present
  stats = view.Apply(noop);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kNoOp);
  EXPECT_EQ(stats.base.noop_ops, 1);

  // Cancelling ops net to nothing.
  StructureDelta cancel;
  cancel.InsertTuple(0, {2, 0}).RemoveTuple(0, {2, 0});
  stats = view.Apply(cancel);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kNoOp);

  // The maintained fixpoint survived the ladder.
  EXPECT_EQ(view.Idb(), EvaluateSemiNaive(tc, view.Base()).idb);

  // Two-step reachability: non-recursive and bounded (stage witness
  // within the default cap) — every delta routes through the optimized
  // stage UCQs.
  const DatalogProgram two_step = DatalogProgram::TwoStepReachability();
  MaterializedView bounded_view(two_step, chain);
  EXPECT_FALSE(bounded_view.Recursive());
  EXPECT_TRUE(bounded_view.Bounded());
  StructureDelta mixed;
  mixed.InsertTuple(0, {4, 2}).RemoveTuple(0, {0, 1});
  stats = bounded_view.Apply(mixed);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kBoundedUcq);
  EXPECT_FALSE(stats.recomputed);
  EXPECT_GT(stats.derivations, 0);  // the unfolding's counting joins
  EXPECT_EQ(bounded_view.Idb(),
            EvaluateSemiNaive(two_step, bounded_view.Base()).idb);

  // Probe disabled: the same non-recursive program maintains by
  // counting instead.
  MaterializedViewOptions no_probe;
  no_probe.max_bounded_stage = 0;
  MaterializedView counting_view(two_step, chain, no_probe);
  EXPECT_FALSE(counting_view.Bounded());
  StructureDelta mixed2;
  mixed2.InsertTuple(0, {3, 0}).RemoveTuple(0, {1, 2});
  stats = counting_view.Apply(mixed2);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kCounting);
  EXPECT_EQ(counting_view.Idb(),
            EvaluateSemiNaive(two_step, counting_view.Base()).idb);

  // Forced baseline: always from-scratch, always recomputed.
  MaterializedViewOptions baseline;
  baseline.force_from_scratch = true;
  MaterializedView forced(tc, chain, baseline);
  StructureDelta edit;
  edit.InsertTuple(0, {2, 4});
  stats = forced.Apply(edit);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kFromScratch);
  EXPECT_TRUE(stats.recomputed);
  EXPECT_EQ(forced.Idb(), EvaluateSemiNaive(tc, forced.Base()).idb);
}

TEST(IncrementalDatalog, BoundedShortCircuitTracksMixedStreams) {
  // A bounded *recursive* program: Q(x) <- U(x); Q(x) <- Q(x), E(x,y).
  // The second rule derives nothing new, so Theta^1 ≡ Theta^2 and the
  // planner certifies it despite the recursion.
  std::vector<DatalogRule> rules;
  rules.push_back(DatalogRule{{"Q", {"x"}}, {{"U", {"x"}}}});
  rules.push_back(DatalogRule{{"Q", {"x"}}, {{"Q", {"x"}}, {"E", {"x", "y"}}}});
  const DatalogProgram program(EdbVocabulary(), std::move(rules));

  const uint64_t seed = TestSeed() ^ 0xBF58476D1CE4E5B9ULL;
  Rng rng(seed);
  const Structure initial = RandomStructure(EdbVocabulary(), 4, 8, rng);
  MaterializedView view(program, initial);
  EXPECT_TRUE(view.Recursive());
  ASSERT_TRUE(view.Bounded());
  Structure scratch = initial;
  for (int k = 0; k < 8; ++k) {
    const StructureDelta delta = RandomDelta(rng, scratch);
    const ViewMaintenanceStats stats = view.Apply(delta);
    scratch.Apply(delta);
    if (stats.plan.traits.inserted > 0 || stats.plan.traits.removed > 0) {
      ASSERT_EQ(stats.plan.strategy, MaintainStrategy::kBoundedUcq);
    }
    ASSERT_EQ(view.Idb(), EvaluateSemiNaive(program, scratch).idb)
        << "step " << k << " (seed " << seed << ")";
  }
}

TEST(IncrementalDatalog, BoundedViewMatchesStageUcqReevaluation) {
  // The retired bounded-UCQ path, re-evaluating each IDB's optimized stage
  // UCQ over the whole base after every delta, is the oracle for counting
  // over the unfolding: random certified-bounded programs, structures of
  // up to 8 elements, multi-tuple batch deltas.
  const uint64_t seed = TestSeed() ^ 0x94D049BB133111EBULL;
  Rng rng(seed);
  constexpr int kPrograms = 24;
  int checked = 0;
  for (int trial = 0; checked < kPrograms && trial < 400; ++trial) {
    const DatalogProgram program =
        RandomProgram(rng, /*allow_inequalities=*/false);
    std::vector<UnionOfCq> oracle;
    for (int i = 0; i < program.Idb().NumRelations(); ++i) {
      const auto stage = FindBoundednessWitness(program, i, 2);
      if (!stage.has_value()) break;
      Budget unlimited = Budget::Unlimited();
      oracle.push_back(
          OptimizeUcqBudgeted(StageUcq(program, i, *stage), unlimited));
    }
    if (static_cast<int>(oracle.size()) != program.Idb().NumRelations()) {
      continue;  // not certified: the view would not plan bounded-ucq
    }
    ++checked;
    const int n = rng.UniformInt(1, 8);
    Structure scratch =
        RandomStructure(EdbVocabulary(), n, rng.UniformInt(0, 3 * n), rng);
    MaterializedView view(program, scratch);
    ASSERT_TRUE(view.Bounded());
    const auto disagreement = [&]() -> std::string {
      for (size_t i = 0; i < oracle.size(); ++i) {
        const std::vector<Tuple> rows = oracle[i].Evaluate(view.Base());
        if (view.Idb()[i] != std::set<Tuple>(rows.begin(), rows.end())) {
          return "IDB " + program.Idb().Name(static_cast<int>(i)) +
                 " disagrees with " + oracle[i].ToString() +
                 "\nreplay: HOMPRES_TEST_SEED=" + std::to_string(seed) +
                 " (trial " + std::to_string(trial) + ")\nprogram:\n" +
                 program.DebugString() +
                 "\nbase: " + view.Base().DebugString();
        }
      }
      return "";
    };
    ASSERT_EQ(disagreement(), "") << "at construction";
    for (int k = 0; k < 6; ++k) {
      const StructureDelta delta =
          RandomDelta(rng, scratch, /*min_ops=*/4, /*max_ops=*/12);
      const ViewMaintenanceStats stats = view.Apply(delta);
      scratch.Apply(delta);
      ASSERT_TRUE(view.Base() == scratch);
      if (stats.plan.traits.inserted > 0 || stats.plan.traits.removed > 0) {
        ASSERT_EQ(stats.plan.strategy, MaintainStrategy::kBoundedUcq);
      }
      ASSERT_EQ(disagreement(), "")
          << "after step " << k << ": "
          << delta.DebugString(scratch.GetVocabulary());
      // The certification itself: the stage UCQs are the fixpoint.
      ASSERT_EQ(view.Idb(), EvaluateSemiNaive(program, scratch).idb)
          << "seed " << seed << " trial " << trial << " step " << k;
    }
  }
  EXPECT_EQ(checked, kPrograms) << "too few certified-bounded programs drawn";
}

Vocabulary NullaryEdbVocabulary() {
  Vocabulary voc;
  voc.AddRelation("Z", 0);
  voc.AddRelation("U", 1);
  voc.AddRelation("E", 2);
  return voc;
}

// Replays `script` against a bounded view of `program`. Every step must
// plan bounded-ucq, keep the base equal to the sequential Apply, match
// the refixpoint, and report IDB flow equal to the IDB diff.
void ExpectBoundedScriptTracksRefixpoint(
    const DatalogProgram& program, const Structure& initial,
    const std::vector<StructureDelta>& script,
    const MaterializedViewOptions& options = {}) {
  MaterializedView view(program, initial, options);
  ASSERT_TRUE(view.Bounded()) << program.DebugString();
  ASSERT_EQ(view.Idb(), EvaluateSemiNaive(program, initial).idb);
  Structure scratch = initial;
  for (size_t k = 0; k < script.size(); ++k) {
    const IdbInterpretation before = view.Idb();
    const ViewMaintenanceStats stats = view.Apply(script[k]);
    scratch.Apply(script[k]);
    EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kBoundedUcq)
        << "step " << k;
    ASSERT_TRUE(view.Base() == scratch) << "step " << k;
    const IdbInterpretation& after = view.Idb();
    ASSERT_EQ(after, EvaluateSemiNaive(program, scratch).idb)
        << "step " << k;
    int inserted = 0;
    int removed = 0;
    for (size_t p = 0; p < after.size(); ++p) {
      for (const Tuple& t : after[p]) inserted += before[p].count(t) == 0;
      for (const Tuple& t : before[p]) removed += after[p].count(t) == 0;
    }
    EXPECT_EQ(stats.idb_inserted, inserted) << "step " << k;
    EXPECT_EQ(stats.idb_removed, removed) << "step " << k;
  }
}

TEST(IncrementalDatalog, BoundedViewEdgeCases) {
  // EDB {Z/0, U/1, E/2}; relation indices in deltas: Z=0, U=1, E=2. The
  // text parser has no 0-ary atom syntax, so programs are built by API.
  constexpr int kZ = 0, kU = 1, kE = 2;
  // Non-recursive: a Boolean view B, loops E(x,x), a repeated head
  // variable D(x,x), a 0-ary body atom next to others, and an IDB (T)
  // that reads another IDB. T repeats its empty stage 0 at stage 1 while
  // L still grows, so T's witness is 2, which the default cap (witnesses
  // below 2) does not certify.
  std::vector<DatalogRule> flat;
  flat.push_back(DatalogRule{{"B", {}}, {{"Z", {}}}});
  flat.push_back(DatalogRule{{"B", {}}, {{"E", {"x", "x"}}, {"U", {"x"}}}});
  flat.push_back(DatalogRule{{"L", {"x"}}, {{"E", {"x", "x"}}}});
  flat.push_back(DatalogRule{{"D", {"x", "x"}}, {{"U", {"x"}}}});
  flat.push_back(
      DatalogRule{{"D", {"x", "y"}}, {{"E", {"x", "y"}}, {"Z", {}}}});
  flat.push_back(
      DatalogRule{{"T", {"y"}}, {{"L", {"x"}}, {"E", {"x", "y"}}}});
  const DatalogProgram flat_program(NullaryEdbVocabulary(), std::move(flat));
  // Bounded recursive: both recursive rules derive nothing new.
  std::vector<DatalogRule> rec;
  rec.push_back(DatalogRule{{"Q", {"x"}}, {{"U", {"x"}}}});
  rec.push_back(DatalogRule{{"Q", {"x"}}, {{"Q", {"x"}}, {"E", {"x", "y"}}}});
  rec.push_back(DatalogRule{{"B", {}}, {{"Z", {}}}});
  rec.push_back(DatalogRule{{"B", {}}, {{"B", {}}, {"U", {"x"}}}});
  const DatalogProgram rec_program(NullaryEdbVocabulary(), std::move(rec));
  EXPECT_TRUE(MaterializedView(rec_program,
                               Structure(NullaryEdbVocabulary(), 1))
                  .Recursive());

  Structure initial(NullaryEdbVocabulary(), 3);
  initial.AddTuple(kE, {0, 1});
  initial.AddTuple(kU, {2});
  std::vector<StructureDelta> script(8);
  script[0].InsertTuple(kZ, {});
  script[1].InsertTuple(kE, {1, 1}).InsertTuple(kE, {1, 2}).InsertTuple(
      kU, {1});
  script[2].RemoveTuple(kZ, {}).InsertTuple(kU, {0});
  // Insert and remove the same tuple in one script, plus one real edit.
  script[3].InsertTuple(kE, {2, 2}).RemoveTuple(kE, {2, 2}).InsertTuple(
      kE, {2, 0});
  script[4].AppendElements(2).InsertTuple(kE, {3, 3}).InsertTuple(kU, {4})
      .InsertTuple(kE, {4, 3});
  script[5].RemoveTuple(kE, {1, 1}).RemoveTuple(kU, {1}).InsertTuple(kZ, {});
  // Remove and re-insert a present tuple: only the Z removal is net.
  script[6].RemoveTuple(kE, {0, 1}).InsertTuple(kE, {0, 1}).RemoveTuple(
      kZ, {});
  for (const Tuple& t : std::vector<Tuple>{{1, 2}, {2, 0}, {3, 3}, {4, 3}}) {
    script[7].RemoveTuple(kE, t);
  }
  script[7].RemoveTuple(kU, {0}).RemoveTuple(kU, {2}).RemoveTuple(kU, {4});

  EXPECT_FALSE(MaterializedView(flat_program, initial).Bounded());
  MaterializedViewOptions cap3;
  cap3.max_bounded_stage = 3;
  ExpectBoundedScriptTracksRefixpoint(flat_program, initial, script, cap3);
  ExpectBoundedScriptTracksRefixpoint(rec_program, initial, script);
}

TEST(IncrementalDatalog, BoundedViewRecoversFromMaintainFault) {
  // A "view/maintain" fault rebuilds a bounded view from scratch over its
  // unfolding, derivation counts included, so counting resumes exactly
  // on the next delta.
  const DatalogProgram two_step = DatalogProgram::TwoStepReachability();
  Vocabulary evoc;
  evoc.AddRelation("E", 2);
  Structure cycle(evoc, 4);
  for (int i = 0; i < 4; ++i) cycle.AddTuple(0, {i, (i + 1) % 4});
  MaterializedView view(two_step, cycle);
  ASSERT_TRUE(view.Bounded());

  auto& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry.Arm("view/maintain", "once"));
  StructureDelta faulted;
  faulted.InsertTuple(0, {0, 2}).RemoveTuple(0, {1, 2});
  ViewMaintenanceStats stats = view.Apply(faulted);
  registry.Disarm("view/maintain");
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kBoundedUcq);
  EXPECT_TRUE(stats.recomputed);
  ASSERT_EQ(stats.plan.degradations.size(), 1u);
  EXPECT_EQ(stats.plan.degradations[0].kind,
            DegradationKind::kMaintainToFromScratch);
  EXPECT_EQ(view.Idb(), EvaluateSemiNaive(two_step, view.Base()).idb);

  StructureDelta next;
  next.RemoveTuple(0, {0, 2}).RemoveTuple(0, {2, 3}).InsertTuple(0, {1, 2});
  stats = view.Apply(next);
  EXPECT_FALSE(stats.recomputed);
  EXPECT_GT(stats.derivations, 0);
  EXPECT_EQ(view.Idb(), EvaluateSemiNaive(two_step, view.Base()).idb);
}

TEST(IncrementalDatalog, AppendOnlyDeltasAreNoOps) {
  const DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Vocabulary evoc;
  evoc.AddRelation("E", 2);
  Structure s(evoc, 3);
  s.AddTuple(0, {0, 1});
  s.AddTuple(0, {1, 2});
  MaterializedView view(tc, s);
  const IdbInterpretation before = view.Idb();
  StructureDelta delta;
  delta.AppendElements(3);
  const ViewMaintenanceStats stats = view.Apply(delta);
  EXPECT_EQ(stats.plan.strategy, MaintainStrategy::kNoOp);
  EXPECT_EQ(stats.base.elements_appended, 3);
  EXPECT_EQ(stats.derivations, 0);
  EXPECT_EQ(view.Idb(), before);
  EXPECT_EQ(view.Base().UniverseSize(), 6);
  EXPECT_EQ(view.Idb(), EvaluateSemiNaive(tc, view.Base()).idb);
}

// k disjoint directed 4-paths: path p is 4p -> 4p+1 -> 4p+2 -> 4p+3.
Structure DisjointPaths(int k) {
  Vocabulary evoc;
  evoc.AddRelation("E", 2);
  Structure s(evoc, 4 * k);
  for (int p = 0; p < k; ++p) {
    for (int i = 0; i < 3; ++i) s.AddTuple(0, {4 * p + i, 4 * p + i + 1});
  }
  return s;
}

// Derivations of a one-edge insert and the matching delete (the end of
// path 0 to the start of path 1), with the view checked against a
// refixpoint after each and the strategies it must plan.
std::vector<long long> OneEdgeRoundDerivations(
    const DatalogProgram& program, int k,
    const MaterializedViewOptions& options, MaintainStrategy on_insert,
    MaintainStrategy on_delete) {
  MaterializedView view(program, DisjointPaths(k), options);
  std::vector<long long> derivations;
  StructureDelta insert;
  insert.InsertTuple(0, {3, 4});
  StructureDelta remove;
  remove.RemoveTuple(0, {3, 4});
  for (const auto& [delta, strategy] :
       {std::pair{&insert, on_insert}, std::pair{&remove, on_delete}}) {
    const ViewMaintenanceStats stats = view.Apply(*delta);
    EXPECT_EQ(stats.plan.strategy, strategy) << "k=" << k;
    EXPECT_FALSE(stats.recomputed);
    EXPECT_EQ(view.Idb(), EvaluateSemiNaive(program, view.Base()).idb)
        << "k=" << k;
    derivations.push_back(stats.derivations);
  }
  return derivations;
}

TEST(IncrementalDatalog, OneEdgeMaintenanceWorkIsIndependentOfBaseSize) {
  // Every maintenance join starts at its delta, so a one-edge delta
  // touches the two paths it joins and nothing else: the same
  // derivations on 16 paths as on 256. A join order that scanned E
  // before reaching the delta would grow with the base.
  const DatalogProgram two_step = DatalogProgram::TwoStepReachability();
  const DatalogProgram reach = DatalogProgram::TransitiveClosure();
  MaterializedViewOptions counting;
  counting.max_bounded_stage = 0;
  const MaterializedViewOptions bounded;
  struct Case {
    const char* name;
    const DatalogProgram* program;
    MaterializedViewOptions options;
    MaintainStrategy on_insert;
    MaintainStrategy on_delete;
  };
  const std::vector<Case> cases = {
      {"two_step_counting", &two_step, counting, MaintainStrategy::kCounting,
       MaintainStrategy::kCounting},
      {"two_step_bounded", &two_step, bounded, MaintainStrategy::kBoundedUcq,
       MaintainStrategy::kBoundedUcq},
      {"reach", &reach, bounded, MaintainStrategy::kDeltaInsert,
       MaintainStrategy::kDRed},
  };
  for (const Case& c : cases) {
    const std::vector<long long> small = OneEdgeRoundDerivations(
        *c.program, 16, c.options, c.on_insert, c.on_delete);
    const std::vector<long long> large = OneEdgeRoundDerivations(
        *c.program, 256, c.options, c.on_insert, c.on_delete);
    EXPECT_EQ(small, large) << c.name;
    for (long long d : small) {
      EXPECT_GT(d, 0) << c.name;
      EXPECT_LE(d, 64) << c.name;  // the two joined paths, not the base
    }
  }
}

// A copy of `program` plus rules whose body holds an atom sharing no
// variable with the head, so a delta there binds nothing the head reads.
DatalogProgram WithDisconnectedAtoms(const DatalogProgram& program) {
  std::vector<DatalogRule> rules = program.Rules();
  rules.push_back(
      DatalogRule{{"P", {"x"}}, {{"U", {"x"}}, {"E", {"y", "z"}}}});
  rules.push_back(
      DatalogRule{{"Q", {"x", "y"}}, {{"U", {"z"}}, {"E", {"x", "y"}}}});
  return DatalogProgram(program.Edb(), std::move(rules));
}

TEST(IncrementalDatalog, DeltaFirstJoinsMatchRefixpointAtEveryPosition) {
  // Each maintenance join runs the order that starts at its delta. For
  // random programs, every body position of every rule receives inserts
  // and deletes of its relation; after each, the view must equal the
  // refixpoint and its derivation counts those of a view built from
  // scratch on the same base (the full counting pass, batch order).
  const uint64_t seed = TestSeed() ^ 0xD1B54A32D192ED03ULL;
  Rng rng(seed);
  std::set<MaintainStrategy> seen;
  for (int trial = 0; trial < 24; ++trial) {
    const DatalogProgram program = WithDisconnectedAtoms(
        RandomProgram(rng, /*allow_inequalities=*/trial % 3 == 0));
    const int n = rng.UniformInt(2, 5);
    Structure scratch =
        RandomStructure(EdbVocabulary(), n, rng.UniformInt(n, 3 * n), rng);
    MaterializedViewOptions options;
    options.max_bounded_stage = trial % 2 == 0 ? 2 : 0;
    MaterializedView view(program, scratch, options);
    for (size_t r = 0; r < program.Rules().size(); ++r) {
      const DatalogRule& rule = program.Rules()[r];
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const auto rel = program.Edb().IndexOf(rule.body[i].relation);
        if (!rel.has_value()) continue;  // IDB positions: fed by flips
        const int arity = program.Edb().Arity(*rel);
        const auto random_tuple = [&] {
          Tuple t;
          for (int j = 0; j < arity; ++j) {
            t.push_back(rng.UniformInt(0, n - 1));
          }
          return t;
        };
        StructureDelta insert;
        insert.InsertTuple(*rel, random_tuple());
        insert.InsertTuple(*rel, random_tuple());
        StructureDelta remove;
        const std::vector<Tuple>& present = scratch.Tuples(*rel);
        if (!present.empty()) {
          const int pick =
              rng.UniformInt(0, static_cast<int>(present.size()) - 1);
          remove.RemoveTuple(*rel, present[static_cast<size_t>(pick)]);
        }
        remove.RemoveTuple(*rel, random_tuple());
        for (const StructureDelta* delta : {&insert, &remove}) {
          const ViewMaintenanceStats stats = view.Apply(*delta);
          scratch.Apply(*delta);
          seen.insert(stats.plan.strategy);
          const std::string where =
              "seed " + std::to_string(seed) + " trial " +
              std::to_string(trial) + " rule " + std::to_string(r) +
              " position " + std::to_string(i) + "\n" +
              program.DebugString() + "\ndelta " +
              delta->DebugString(scratch.GetVocabulary());
          ASSERT_TRUE(view.Base() == scratch) << where;
          ASSERT_EQ(view.Idb(), EvaluateSemiNaive(program, scratch).idb)
              << where;
          ASSERT_EQ(view.DerivationCounts(),
                    MaterializedView(program, scratch, options)
                        .DerivationCounts())
              << where;
        }
      }
    }
  }
  for (MaintainStrategy strategy :
       {MaintainStrategy::kCounting, MaintainStrategy::kBoundedUcq,
        MaintainStrategy::kDeltaInsert, MaintainStrategy::kDRed}) {
    EXPECT_EQ(seen.count(strategy), 1u) << MaintainStrategyName(strategy);
  }
}

TEST(IncrementalDatalog, MaintenancePlanRendersStably) {
  MaintenanceTraits traits;
  traits.recursive = true;
  traits.inserted = 2;
  traits.removed = 1;
  const MaintenancePlan plan = PlanMaintenance(traits);
  EXPECT_EQ(plan.strategy, MaintainStrategy::kDRed);
  EXPECT_EQ(plan.Summary(),
            "maintain=dred recursive=1 bounded=0 ins=2 rem=1 appends=0");
  plan.degradations.push_back(
      DegradationEvent{DegradationKind::kMaintainToFromScratch,
                       "view/maintain", "injected"});
  EXPECT_EQ(plan.Summary(),
            "maintain=dred recursive=1 bounded=0 ins=2 rem=1 appends=0"
            " degraded=maintain-to-scratch");
  const std::string explain = plan.Explain();
  EXPECT_NE(explain.find("strategy: dred"), std::string::npos);
  EXPECT_NE(explain.find("maintain-to-scratch (view/maintain): injected"),
            std::string::npos);
}

}  // namespace
}  // namespace hompres
