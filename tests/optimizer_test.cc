// The UCQ optimizer's differential wall (opt/canonical.h,
// opt/containment_cache.h, opt/optimizer.h): canonical fingerprints are
// invariant under variable renaming and never conflate distinct
// queries; the signature prefilter is a sound necessary condition; the
// verdict cache changes no verdict; and the optimizer — serial,
// parallel, cached, uncached, budget-starved, or fault-injected — only
// ever changes the *cost* of a union, never its answers.

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/failpoint.h"
#include "base/rng.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "engine/config.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/problem.h"
#include "hom/hom_cache.h"
#include "opt/canonical.h"
#include "opt/containment_cache.h"
#include "opt/optimizer.h"
#include "structure/generators.h"
#include "structure/structure.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

ConjunctiveQuery PathQuery(int edges) {
  return ConjunctiveQuery::BooleanQueryOf(DirectedPathStructure(edges + 1));
}

// A copy of `q` with its variables renamed by a random permutation: the
// same query, spelled differently.
ConjunctiveQuery RenamedCopy(const ConjunctiveQuery& q, Rng& rng) {
  const Structure& canonical = q.Canonical();
  const int n = canonical.UniverseSize();
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<size_t>(i)],
              perm[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  Structure renamed(canonical.GetVocabulary(), n);
  for (int rel = 0; rel < canonical.GetVocabulary().NumRelations(); ++rel) {
    for (const Tuple& t : canonical.Tuples(rel)) {
      Tuple mapped;
      mapped.reserve(t.size());
      for (int e : t) mapped.push_back(perm[static_cast<size_t>(e)]);
      renamed.AddTuple(rel, mapped);
    }
  }
  std::vector<int> free_elements;
  free_elements.reserve(q.FreeElements().size());
  for (int e : q.FreeElements()) {
    free_elements.push_back(perm[static_cast<size_t>(e)]);
  }
  return ConjunctiveQuery(std::move(renamed), std::move(free_elements));
}

// A random CQ over {E/2} with `arity` free variables (the first
// elements, so arities line up across a union).
ConjunctiveQuery RandomCq(int universe, int tuples, int arity, Rng& rng) {
  Structure canonical = RandomStructure(GraphVocabulary(), universe, tuples,
                                        rng);
  std::vector<int> free_elements;
  for (int i = 0; i < arity; ++i) free_elements.push_back(i);
  return ConjunctiveQuery(std::move(canonical), std::move(free_elements));
}

// A redundant union: `base` random disjuncts, plus renamed copies, plus
// specializations (extra atoms, hence contained in their original).
UnionOfCq RedundantUcq(int base, int arity, Rng& rng) {
  std::vector<ConjunctiveQuery> disjuncts;
  for (int i = 0; i < base; ++i) {
    const int universe = std::max(arity, 2 + static_cast<int>(rng.Uniform(3)));
    disjuncts.push_back(RandomCq(universe, 1 + static_cast<int>(
                                               rng.Uniform(4)),
                                 arity, rng));
  }
  const int originals = static_cast<int>(disjuncts.size());
  for (int i = 0; i < originals; ++i) {
    disjuncts.push_back(RenamedCopy(disjuncts[static_cast<size_t>(i)], rng));
    // Specialize: append a fresh pendant edge to a copy. The result has
    // strictly more constraints, so it is contained in the original and
    // the subsumption pass should drop it.
    const ConjunctiveQuery& original = disjuncts[static_cast<size_t>(i)];
    Structure specialized(original.Canonical());
    const int fresh = specialized.AddElement();
    specialized.AddTuple(0, {0, fresh});
    disjuncts.emplace_back(std::move(specialized), original.FreeElements());
  }
  // Shuffle so redundancy is not adjacency.
  for (size_t i = disjuncts.size() - 1; i > 0; --i) {
    std::swap(disjuncts[i], disjuncts[rng.Uniform(i + 1)]);
  }
  return UnionOfCq(std::move(disjuncts), arity);
}

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global().DisarmAll();
    ContainmentCache::Global().Clear();
    HomCache::Global().Clear();
  }
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }
};

// --- canonical forms and fingerprints ---------------------------------

TEST_F(OptimizerTest, FingerprintInvariantUnderRenaming) {
  Rng rng(101);
  for (int trial = 0; trial < 40; ++trial) {
    const ConjunctiveQuery q = RandomCq(2 + static_cast<int>(rng.Uniform(4)),
                                        1 + static_cast<int>(rng.Uniform(5)),
                                        trial % 3, rng);
    const ConjunctiveQuery renamed = RenamedCopy(q, rng);
    const CanonicalCq canonical = CanonicalForm(q);
    if (canonical.exact) {
      EXPECT_EQ(canonical.fingerprint, CqFingerprint(renamed))
          << q.ToString() << " vs " << renamed.ToString();
    }
    // The canonical form is the same query (a bijective renaming).
    EXPECT_TRUE(CqEquivalent(q, canonical.query));
  }
}

TEST_F(OptimizerTest, FingerprintSeparatesDistinctQueries) {
  EXPECT_NE(CqFingerprint(PathQuery(2)), CqFingerprint(PathQuery(3)));
  // A loop E(x,x) is not the edge query E(x,y).
  Structure loop(GraphVocabulary(), 1);
  loop.AddTuple(0, {0, 0});
  EXPECT_NE(CqFingerprint(ConjunctiveQuery::BooleanQueryOf(loop)),
            CqFingerprint(PathQuery(1)));
  // Free-position profile: q(x,y) = E(x,y) vs q(x,x) = E(x,x) vs the
  // Boolean projection of the same pattern.
  Structure edge(GraphVocabulary(), 2);
  edge.AddTuple(0, {0, 1});
  ConjunctiveQuery pair(edge, {0, 1});
  ConjunctiveQuery swapped(edge, {1, 0});
  ConjunctiveQuery boolean = ConjunctiveQuery::BooleanQueryOf(edge);
  EXPECT_NE(CqFingerprint(pair), CqFingerprint(boolean));
  EXPECT_NE(CqFingerprint(pair), CqFingerprint(swapped));
  Structure diag(GraphVocabulary(), 1);
  diag.AddTuple(0, {0, 0});
  EXPECT_NE(CqFingerprint(pair), CqFingerprint(ConjunctiveQuery(diag, {0, 0})));
}

TEST_F(OptimizerTest, HighlySymmetricQueryFallsBackDeterministically) {
  // 8 disjoint loops: every element is interchangeable, so the tie
  // search faces 8! > kMaxTieOrderings orderings and must fall back —
  // the same way every time.
  Structure loops(GraphVocabulary(), 8);
  for (int i = 0; i < 8; ++i) loops.AddTuple(0, {i, i});
  const ConjunctiveQuery q = ConjunctiveQuery::BooleanQueryOf(loops);
  const CanonicalCq first = CanonicalForm(q);
  const CanonicalCq second = CanonicalForm(q);
  EXPECT_FALSE(first.exact);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_NE(first.fingerprint, 0u);
}

TEST_F(OptimizerTest, UcqFingerprintInvariantUnderDisjunctOrderAndRenaming) {
  Rng rng(202);
  const ConjunctiveQuery a = PathQuery(2);
  const ConjunctiveQuery b =
      ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(3));
  const UnionOfCq u1({a, b});
  const UnionOfCq u2({RenamedCopy(b, rng), RenamedCopy(a, rng)});
  EXPECT_EQ(UcqFingerprint(u1), UcqFingerprint(u2));
  const UnionOfCq u3({a});
  EXPECT_NE(UcqFingerprint(u1), UcqFingerprint(u3));
}

// --- signature prefilter ----------------------------------------------

// {E/2, F/2}: two binary relations, so one can be empty on one side —
// the configuration the relation-population prefilter condition needs.
Vocabulary TwoRelationVocabulary() {
  Vocabulary voc;
  voc.AddRelation("E", 2);
  voc.AddRelation("F", 2);
  return voc;
}

// A random Boolean CQ over {E/2, F/2} with independent per-relation
// atom counts (either may be zero).
ConjunctiveQuery RandomTwoRelationCq(Rng& rng) {
  const int n = 2 + static_cast<int>(rng.Uniform(3));
  Structure canonical(TwoRelationVocabulary(), n);
  for (int rel = 0; rel < 2; ++rel) {
    const int atoms = static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < atoms; ++i) {
      canonical.AddTuple(rel, {rng.UniformInt(0, n - 1),
                               rng.UniformInt(0, n - 1)});
    }
  }
  return ConjunctiveQuery::BooleanQueryOf(canonical);
}

TEST_F(OptimizerTest, PrefilterIsSoundOnRandomPairs) {
  Rng rng(303);
  int filtered = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const ConjunctiveQuery q1 = RandomTwoRelationCq(rng);
    const ConjunctiveQuery q2 = RandomTwoRelationCq(rng);
    if (!MayBeContainedIn(SignatureOf(q1), SignatureOf(q2))) {
      ++filtered;
      EXPECT_FALSE(CqContained(q1, q2))
          << q1.ToString() << " ⊆ " << q2.ToString();
    }
  }
  // The trial mix must actually exercise the filter.
  EXPECT_GT(filtered, 0);
}

TEST_F(OptimizerTest, PrefilterDismissesPopulationMismatch) {
  // sup asserts an F-atom that sub lacks: no homomorphism can exist, and
  // the signatures alone prove it.
  Structure sub(TwoRelationVocabulary(), 2);
  sub.AddTuple(0, {0, 1});
  Structure sup(TwoRelationVocabulary(), 2);
  sup.AddTuple(0, {0, 1});
  sup.AddTuple(1, {0, 1});
  const ConjunctiveQuery q_sub = ConjunctiveQuery::BooleanQueryOf(sub);
  const ConjunctiveQuery q_sup = ConjunctiveQuery::BooleanQueryOf(sup);
  EXPECT_FALSE(MayBeContainedIn(SignatureOf(q_sub), SignatureOf(q_sup)));
  EXPECT_FALSE(CqContained(q_sub, q_sup));
  // The other direction passes the filter and is genuinely contained.
  EXPECT_TRUE(MayBeContainedIn(SignatureOf(q_sup), SignatureOf(q_sub)));
  EXPECT_TRUE(CqContained(q_sup, q_sub));
}

// --- the verdict cache ------------------------------------------------

TEST_F(OptimizerTest, ContainmentCacheRoundTripAndCapacity) {
  ContainmentCache cache;
  EXPECT_FALSE(cache.Lookup(1, 2).has_value());
  EXPECT_TRUE(cache.Insert(1, 2, true));
  EXPECT_TRUE(cache.Insert(3, 4, false));
  ASSERT_TRUE(cache.Lookup(1, 2).has_value());
  EXPECT_TRUE(*cache.Lookup(1, 2));
  ASSERT_TRUE(cache.Lookup(3, 4).has_value());
  EXPECT_FALSE(*cache.Lookup(3, 4));
  // The pair is ordered: (2, 1) is a different question.
  EXPECT_FALSE(cache.Lookup(2, 1).has_value());

  // Tiny capacity forces LRU eviction.
  cache.SetTotalCapacity(ContainmentCache::kNumShards);
  for (uint64_t i = 0; i < 4096; ++i) {
    cache.Insert(i * 2 + 100, i * 2 + 101, (i & 1) != 0);
  }
  const ContainmentCacheStats stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.insertions, 0u);
}

// Capacity belongs to the instance: shrinking a local cache leaves the
// global one (and any other instance) at the default of 16 384 entries.
TEST_F(OptimizerTest, ContainmentCacheCapacityIsPerInstance) {
  constexpr uint64_t kDefaultTotal =
      uint64_t{ContainmentCache::kNumShards} *
      ContainmentCache::kDefaultShardCapacity;
  ContainmentCache local;
  EXPECT_EQ(local.TotalCapacity(), kDefaultTotal);
  local.SetTotalCapacity(ContainmentCache::kNumShards);
  EXPECT_EQ(local.TotalCapacity(), uint64_t{ContainmentCache::kNumShards});
  EXPECT_EQ(ContainmentCache::Global().TotalCapacity(), kDefaultTotal);
  ContainmentCache other;
  EXPECT_EQ(other.TotalCapacity(), kDefaultTotal);
  // Zero rounds up to one entry per shard.
  local.SetTotalCapacity(0);
  EXPECT_EQ(local.TotalCapacity(), uint64_t{ContainmentCache::kNumShards});
}

TEST_F(OptimizerTest, ContainmentCacheStatsAndHitRate) {
  ContainmentCache cache;
  ContainmentCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.HitRatePercent(), 0u);  // no lookups yet
  cache.Insert(7, 8, true);
  (void)cache.Lookup(7, 8);  // hit
  (void)cache.Lookup(8, 7);  // miss
  stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.HitRatePercent(), 50u);
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(7, 8).has_value());
}

TEST_F(OptimizerTest, ContainmentCacheFailpoints) {
  ContainmentCache cache;
  cache.Insert(1, 2, true);
  FailpointRegistry::Global().Arm("containment_cache/lookup", "once");
  bool failed = false;
  EXPECT_FALSE(cache.Lookup(1, 2, &failed).has_value());
  EXPECT_TRUE(failed);
  // Next lookup is healthy again.
  failed = false;
  EXPECT_TRUE(cache.Lookup(1, 2, &failed).has_value());
  EXPECT_FALSE(failed);

  FailpointRegistry::Global().Arm("containment_cache/insert", "once");
  EXPECT_FALSE(cache.Insert(5, 6, true));
  EXPECT_FALSE(cache.Lookup(5, 6).has_value());
  EXPECT_TRUE(cache.Insert(5, 6, true));  // healthy again

  cache.EvictShardFor(1, 2);
  EXPECT_FALSE(cache.Lookup(1, 2).has_value());
}

TEST_F(OptimizerTest, CqContainedCachedAgreesAndHits) {
  Rng rng(404);
  for (int trial = 0; trial < 30; ++trial) {
    const ConjunctiveQuery q1 = RandomCq(2 + static_cast<int>(rng.Uniform(3)),
                                         1 + static_cast<int>(rng.Uniform(4)),
                                         0, rng);
    const ConjunctiveQuery q2 = RandomCq(2 + static_cast<int>(rng.Uniform(3)),
                                         1 + static_cast<int>(rng.Uniform(4)),
                                         0, rng);
    EXPECT_EQ(CqContainedCached(q1, q2), CqContained(q1, q2));
  }
  // Repeating a probe is answered from the cache.
  const ConjunctiveQuery a = PathQuery(3);
  const ConjunctiveQuery b = PathQuery(2);
  (void)CqContainedCached(a, b);
  const uint64_t hits_before = ContainmentCache::Global().Stats().hits;
  EXPECT_TRUE(CqContainedCached(a, b));
  EXPECT_GT(ContainmentCache::Global().Stats().hits, hits_before);
}

// --- the optimizer pass -----------------------------------------------

TEST_F(OptimizerTest, CollapsesRenamedDuplicatesByFingerprint) {
  Rng rng(505);
  const ConjunctiveQuery base = PathQuery(2);
  UnionOfCq q({base, RenamedCopy(base, rng), RenamedCopy(base, rng)});
  OptimizerStats stats;
  const UnionOfCq optimized = OptimizeUcq(q, {}, &stats);
  EXPECT_EQ(optimized.Disjuncts().size(), 1u);
  EXPECT_GE(stats.fingerprint_dedups, 2);
  EXPECT_TRUE(UcqEquivalent(q, optimized));
}

TEST_F(OptimizerTest, MinimizeUcqIsPermutationInvariant) {
  // Three spellings of the same query plus an incomparable one (C3 and
  // C4 are mutually non-containing: no hom between directed cycles of
  // coprime lengths): any input order must keep the same
  // representative.
  Rng rng(606);
  const ConjunctiveQuery c3 =
      ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(3));
  std::vector<ConjunctiveQuery> disjuncts = {
      c3, RenamedCopy(c3, rng), RenamedCopy(c3, rng),
      ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(4))};
  std::vector<size_t> order(disjuncts.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::string> first_result;
  int permutation = 0;
  do {
    std::vector<ConjunctiveQuery> permuted;
    for (size_t i : order) permuted.push_back(disjuncts[i]);
    OptimizerOptions options;
    options.verify = true;
    Budget unlimited = Budget::Unlimited();
    const UnionOfCq minimized = OptimizeUcqBudgeted(
        UnionOfCq(std::move(permuted)), unlimited, options);
    std::vector<std::string> rendered;
    for (const ConjunctiveQuery& d : minimized.Disjuncts()) {
      rendered.push_back(d.ToString());
    }
    if (permutation == 0) {
      first_result = rendered;
      EXPECT_EQ(rendered.size(), 2u);
    } else {
      EXPECT_EQ(rendered, first_result) << "permutation " << permutation;
    }
    ++permutation;
  } while (std::next_permutation(order.begin(), order.end()) &&
           permutation < 12);
}

TEST_F(OptimizerTest, DifferentialAgainstUnoptimizedEvaluation) {
  Rng rng(707);
  for (int trial = 0; trial < 12; ++trial) {
    const int arity = trial % 2;
    const UnionOfCq q = RedundantUcq(2, arity, rng);
    OptimizerStats stats;
    const UnionOfCq optimized = OptimizeUcq(q, {}, &stats);
    EXPECT_LT(optimized.Disjuncts().size(), q.Disjuncts().size());
    for (int structure = 0; structure < 6; ++structure) {
      const Structure b = RandomStructure(
          GraphVocabulary(), 1 + static_cast<int>(rng.Uniform(4)),
          static_cast<int>(rng.Uniform(6)), rng);
      EXPECT_EQ(optimized.SatisfiedBy(b), q.SatisfiedBy(b))
          << "trial " << trial;
      EXPECT_EQ(optimized.Evaluate(b), q.Evaluate(b)) << "trial " << trial;
    }
  }
}

TEST_F(OptimizerTest, CacheOnAndOffProduceIdenticalResults) {
  Rng rng(808);
  for (int trial = 0; trial < 8; ++trial) {
    // Splice two incomparable cycle queries into the random redundancy
    // so the subsumption pass always has at least one candidate pair to
    // probe (random disjuncts often collapse to one core).
    UnionOfCq random = RedundantUcq(2, 0, rng);
    std::vector<ConjunctiveQuery> disjuncts = random.Disjuncts();
    disjuncts.push_back(
        ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(3)));
    disjuncts.push_back(
        ConjunctiveQuery::BooleanQueryOf(DirectedCycleStructure(4)));
    const UnionOfCq q(std::move(disjuncts), 0);
    OptimizerOptions with_cache;
    OptimizerOptions without_cache;
    without_cache.use_cache = false;
    // Run the cached pass twice so the second run actually hits.
    const UnionOfCq first = OptimizeUcq(q, with_cache);
    OptimizerStats cached_stats;
    const UnionOfCq cached = OptimizeUcq(q, with_cache, &cached_stats);
    const UnionOfCq uncached = OptimizeUcq(q, without_cache);
    ASSERT_EQ(cached.Disjuncts().size(), uncached.Disjuncts().size());
    ASSERT_EQ(first.Disjuncts().size(), cached.Disjuncts().size());
    for (size_t i = 0; i < cached.Disjuncts().size(); ++i) {
      EXPECT_EQ(cached.Disjuncts()[i].ToString(),
                uncached.Disjuncts()[i].ToString());
    }
    EXPECT_GT(cached_stats.cache_hits, 0u);
  }
}

TEST_F(OptimizerTest, ParallelMatchesSerial) {
  Rng rng(909);
  for (int trial = 0; trial < 6; ++trial) {
    const UnionOfCq q = RedundantUcq(2, trial % 2, rng);
    OptimizerOptions parallel;
    parallel.num_threads = 4;
    // Separate cache states so parallelism, not cache warmth, is the
    // only variable.
    ContainmentCache::Global().Clear();
    const UnionOfCq serial_result = OptimizeUcq(q);
    ContainmentCache::Global().Clear();
    const UnionOfCq parallel_result = OptimizeUcq(q, parallel);
    ASSERT_EQ(serial_result.Disjuncts().size(),
              parallel_result.Disjuncts().size());
    for (size_t i = 0; i < serial_result.Disjuncts().size(); ++i) {
      EXPECT_EQ(serial_result.Disjuncts()[i].ToString(),
                parallel_result.Disjuncts()[i].ToString());
    }
  }
}

TEST_F(OptimizerTest, ExhaustedBudgetDegradesToInput) {
  const UnionOfCq q({PathQuery(3), PathQuery(2), PathQuery(1)});
  Budget budget = Budget::MaxSteps(1);
  OptimizerStats stats;
  const UnionOfCq degraded = OptimizeUcqBudgeted(q, budget, {}, &stats);
  EXPECT_TRUE(stats.degraded_to_input);
  EXPECT_EQ(degraded.Disjuncts().size(), q.Disjuncts().size());
  ASSERT_FALSE(stats.degradations.empty());
  EXPECT_EQ(stats.degradations.front().kind,
            DegradationKind::kMinimizeToUnminimized);
  EXPECT_EQ(stats.degradations.front().site, "opt/budget");
  // Degraded output is still the same query.
  EXPECT_TRUE(UcqEquivalent(q, degraded));
}

TEST_F(OptimizerTest, ContainFailpointKeepsDisjunctsButStaysEquivalent) {
  FailpointRegistry::Global().Arm("opt/contain", "always");
  const UnionOfCq q({PathQuery(3), PathQuery(2), PathQuery(1)});
  OptimizerStats stats;
  OptimizerOptions options;
  options.verify = false;
  const UnionOfCq result = OptimizeUcq(q, options, &stats);
  // Every containment probe was unavailable: nothing can be dropped by
  // subsumption (minimization inside each disjunct still ran).
  EXPECT_EQ(result.Disjuncts().size(), 3u);
  ASSERT_FALSE(stats.degradations.empty());
  EXPECT_EQ(stats.degradations.front().kind,
            DegradationKind::kMinimizeToUnminimized);
  EXPECT_EQ(stats.degradations.front().site, "opt/contain");
  FailpointRegistry::Global().DisarmAll();
  EXPECT_TRUE(UcqEquivalent(q, result));
  // A later un-faulted pass recovers full minimization.
  EXPECT_EQ(OptimizeUcq(q).Disjuncts().size(), 1u);
}

TEST_F(OptimizerTest, NthContainFailpointOnlyWeakensTheResult) {
  // A single lost probe may keep one extra disjunct but never changes
  // answers (chaos drills sweep the same site randomly).
  Rng rng(1111);
  const UnionOfCq q = RedundantUcq(2, 0, rng);
  FailpointRegistry::Global().Arm("opt/contain", "nth:2");
  OptimizerOptions options;
  const UnionOfCq result = OptimizeUcq(q, options);
  FailpointRegistry::Global().DisarmAll();
  EXPECT_TRUE(UcqEquivalent(q, result));
}

// --- plan surfacing ----------------------------------------------------

TEST_F(OptimizerTest, PlanSummaryAndExplainCarryOptimizerSection) {
  const Structure a = DirectedPathStructure(3);
  const Structure b = DirectedPathStructure(4);
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = HomQueryMode::kHas;
  EngineConfig config;
  config.optimizer = true;
  const PlanResult planned = PlanHomQuery(problem, config, PlanMode::kStrict);
  ASSERT_TRUE(planned.plan.has_value());
  EXPECT_NE(planned.plan->Summary().find("optimizer=1 ccache-hit-rate="),
            std::string::npos);
  EXPECT_NE(planned.plan->Explain().find("optimizer: on"), std::string::npos);
  // Without the flag the historical strings are untouched.
  const PlanResult plain =
      PlanHomQuery(problem, EngineConfig{}, PlanMode::kStrict);
  ASSERT_TRUE(plain.plan.has_value());
  EXPECT_EQ(plain.plan->Summary().find("optimizer"), std::string::npos);
}

}  // namespace
}  // namespace hompres
