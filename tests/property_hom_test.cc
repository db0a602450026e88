// Randomized differential testing of the homomorphism engines.
//
// Every trial draws a random structure pair and checks that the naive
// backtracking engine, the AC-3 serial engine, and the parallel engine
// (both witness modes) agree on existence, produce witnesses that pass an
// independent oracle, and report identical counts. A disagreement shrinks
// the pair (greedy tuple/element removal while the disagreement persists)
// and prints the seed together with parser-compatible serializations of
// the shrunken structures, so a failure replays with
//
//   HOMPRES_TEST_SEED=<seed> ./property_hom_test
//
// The default seed is fixed (ctest runs are reproducible); the
// HOMPRES_TEST_SEED environment variable overrides it, which the CI soak
// job uses to sweep fresh seeds nightly.

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/rng.h"
#include "base/simd.h"
#include "engine/engine.h"
#include "hom/homomorphism.h"
#include "structure/generators.h"
#include "structure/structure.h"
#include "structure/vocabulary.h"

namespace hompres {

// The differential harness below names its engine-configuration rows
// `Engine`, shadowing the execution engine class inside the anonymous
// namespace; alias the class first so the plan-vs-legacy test can reach
// it.
using PlanEngine = Engine;

namespace {

constexpr uint64_t kDefaultSeed = 20260806;

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

// Independent homomorphism oracle (deliberately not VerifyHomomorphism,
// which the engines themselves use): h must be total, in range, and map
// every tuple of a onto a tuple of b.
bool CheckIsHomomorphism(const Structure& a, const Structure& b,
                         const std::vector<int>& h) {
  if (static_cast<int>(h.size()) != a.UniverseSize()) return false;
  for (int image : h) {
    if (image < 0 || image >= b.UniverseSize()) return false;
  }
  for (int rel = 0; rel < a.GetVocabulary().NumRelations(); ++rel) {
    for (const Tuple& t : a.Tuples(rel)) {
      Tuple image(t.size());
      for (size_t i = 0; i < t.size(); ++i) {
        image[i] = h[static_cast<size_t>(t[i])];
      }
      if (!b.HasTuple(rel, image)) return false;
    }
  }
  return true;
}

struct Engine {
  std::string name;
  EngineConfig options;
};

std::vector<Engine> AllEngines() {
  std::vector<Engine> engines(5);
  engines[0].name = "naive";
  engines[0].options.use_arc_consistency = false;
  engines[1].name = "ac";
  engines[2].name = "ac_noindex";
  engines[2].options.use_index = false;
  engines[3].name = "parallel";
  engines[3].options.num_threads = 3;
  engines[4].name = "parallel_det";
  engines[4].options.num_threads = 3;
  engines[4].options.deterministic_witness = true;
  return engines;
}

Vocabulary MixedVocabulary() {
  Vocabulary voc;
  voc.AddRelation("U", 1);
  voc.AddRelation("E", 2);
  voc.AddRelation("T", 3);
  return voc;
}

// True iff the engine's existence answer differs from the naive
// backtracking reference on (a, b) under `extra` options.
bool ExistenceDisagrees(const Structure& a, const Structure& b,
                        const EngineConfig& engine_options) {
  EngineConfig reference;
  reference.use_arc_consistency = false;
  reference.surjective = engine_options.surjective;
  reference.forced = engine_options.forced;
  const bool expected = FindHomomorphism(a, b, reference).has_value();
  const bool actual = FindHomomorphism(a, b, engine_options).has_value();
  return expected != actual;
}

// Greedy shrink: repeatedly drop a tuple (then an element) from either
// structure while the engines still disagree, and return the minimized
// pair for the failure report.
std::pair<Structure, Structure> Shrink(Structure a, Structure b,
                                       const EngineConfig& engine_options) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (Structure* s : {&a, &b}) {
      for (int rel = 0; rel < s->GetVocabulary().NumRelations(); ++rel) {
        for (int i = 0; i < static_cast<int>(s->Tuples(rel).size()); ++i) {
          Structure smaller = s->RemoveTuple(rel, i);
          Structure& other = (s == &a) ? b : a;
          const bool still = (s == &a)
                                 ? ExistenceDisagrees(smaller, other,
                                                      engine_options)
                                 : ExistenceDisagrees(other, smaller,
                                                      engine_options);
          if (still) {
            *s = std::move(smaller);
            progress = true;
            i = -1;  // restart this relation's scan
          }
        }
      }
      for (int e = s->UniverseSize() - 1; e >= 0; --e) {
        Structure smaller = s->RemoveElement(e);
        Structure& other = (s == &a) ? b : a;
        const bool still =
            (s == &a)
                ? ExistenceDisagrees(smaller, other, engine_options)
                : ExistenceDisagrees(other, smaller, engine_options);
        if (still) {
          *s = std::move(smaller);
          progress = true;
        }
      }
    }
  }
  return {std::move(a), std::move(b)};
}

std::string FailureReport(uint64_t seed, int trial, const std::string& engine,
                          const Structure& a, const Structure& b,
                          const EngineConfig& engine_options) {
  auto [sa, sb] = Shrink(a, b, engine_options);
  return "engine '" + engine + "' disagrees with the naive reference\n" +
         "replay: HOMPRES_TEST_SEED=" + std::to_string(seed) +
         " (trial " + std::to_string(trial) + ")\n" +
         "shrunken a: " + sa.DebugString() + "\n" +
         "shrunken b: " + sb.DebugString();
}

// One differential trial: all engines must agree with the naive reference
// on existence, their witnesses must pass the oracle, and their counts
// (full and limit-clamped) must match.
void RunTrial(uint64_t seed, int trial, const Structure& a,
              const Structure& b, bool surjective) {
  EngineConfig reference;
  reference.use_arc_consistency = false;
  reference.surjective = surjective;
  const auto expected = FindHomomorphism(a, b, reference);
  const uint64_t expected_count =
      CountHomomorphisms(a, b, /*limit=*/0, reference);
  if (expected.has_value()) {
    ASSERT_TRUE(CheckIsHomomorphism(a, b, *expected))
        << FailureReport(seed, trial, "naive", a, b, reference);
    EXPECT_GE(expected_count, 1u);
  } else {
    EXPECT_EQ(expected_count, 0u);
  }

  for (const Engine& engine : AllEngines()) {
    EngineConfig options = engine.options;
    options.surjective = surjective;
    const auto witness = FindHomomorphism(a, b, options);
    ASSERT_EQ(witness.has_value(), expected.has_value())
        << FailureReport(seed, trial, engine.name, a, b, options);
    if (witness.has_value()) {
      ASSERT_TRUE(CheckIsHomomorphism(a, b, *witness))
          << FailureReport(seed, trial, engine.name + " (witness oracle)", a,
                           b, options);
    }
    const uint64_t count = CountHomomorphisms(a, b, /*limit=*/0, options);
    ASSERT_EQ(count, expected_count)
        << FailureReport(seed, trial, engine.name + " (count)", a, b,
                         options);
    if (expected_count > 1) {
      const uint64_t limit = expected_count / 2 + 1;
      ASSERT_EQ(CountHomomorphisms(a, b, limit, options), limit)
          << FailureReport(seed, trial, engine.name + " (limit clamp)", a, b,
                           options);
    }
  }
}

TEST(PropertyHom, EnginesAgreeOnGraphStructures) {
  const uint64_t seed = TestSeed();
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  for (int trial = 0; trial < 220; ++trial) {
    const int n = rng.UniformInt(1, 5);
    const int m = rng.UniformInt(1, 5);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, 2 * n), rng);
    const Structure b = RandomStructure(voc, m, rng.UniformInt(0, 3 * m), rng);
    // Every fourth trial also exercises the surjective mode, whose
    // interaction with arc consistency has its own pruning rules.
    RunTrial(seed, trial, a, b, /*surjective=*/trial % 4 == 0);
    if (HasFatalFailure()) return;
  }
}

TEST(PropertyHom, EnginesAgreeOnMixedArityStructures) {
  const uint64_t seed = TestSeed() ^ 0x9E3779B97F4A7C15ULL;
  Rng rng(seed);
  const Vocabulary voc = MixedVocabulary();
  for (int trial = 0; trial < 120; ++trial) {
    const int n = rng.UniformInt(1, 4);
    const int m = rng.UniformInt(1, 4);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, n + 2), rng);
    const Structure b =
        RandomStructure(voc, m, rng.UniformInt(0, 2 * m + 2), rng);
    RunTrial(seed, trial, a, b, /*surjective=*/false);
    if (HasFatalFailure()) return;
  }
}

TEST(PropertyHom, EnginesAgreeUnderForcedPairs) {
  const uint64_t seed = TestSeed() ^ 0xBF58476D1CE4E5B9ULL;
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  for (int trial = 0; trial < 100; ++trial) {
    const int n = rng.UniformInt(2, 5);
    const int m = rng.UniformInt(2, 5);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, 2 * n), rng);
    const Structure b = RandomStructure(voc, m, rng.UniformInt(0, 3 * m), rng);
    EngineConfig forced;
    forced.forced.emplace_back(rng.UniformInt(0, n - 1),
                               rng.UniformInt(0, m - 1));

    EngineConfig reference = forced;
    reference.use_arc_consistency = false;
    const bool expected = FindHomomorphism(a, b, reference).has_value();
    for (const Engine& engine : AllEngines()) {
      EngineConfig options = engine.options;
      options.forced = forced.forced;
      const auto witness = FindHomomorphism(a, b, options);
      ASSERT_EQ(witness.has_value(), expected)
          << FailureReport(seed, trial, engine.name + " (forced)", a, b,
                           options);
      if (witness.has_value()) {
        ASSERT_TRUE(CheckIsHomomorphism(a, b, *witness));
        for (const auto& [var, val] : forced.forced) {
          ASSERT_EQ((*witness)[static_cast<size_t>(var)], val);
        }
      }
    }
  }
}

TEST(PropertyHom, DeterministicWitnessIsStable) {
  const uint64_t seed = TestSeed() ^ 0x94D049BB133111EBULL;
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  EngineConfig det;
  det.num_threads = 3;
  det.deterministic_witness = true;
  for (int trial = 0; trial < 50; ++trial) {
    const int n = rng.UniformInt(1, 5);
    const int m = rng.UniformInt(1, 5);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, 2 * n), rng);
    const Structure b = RandomStructure(voc, m, rng.UniformInt(0, 3 * m), rng);
    const auto first = FindHomomorphism(a, b, det);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto again = FindHomomorphism(a, b, det);
      ASSERT_EQ(first, again)
          << "deterministic witness changed across runs; seed " << seed
          << " trial " << trial << "\na: " << a.DebugString()
          << "\nb: " << b.DebugString();
    }
  }
}

// The zero-thread configuration must be the serial engine exactly: same
// witness, bit for bit, as the default options (this pins down the
// "num_threads = 0 is bit-identical to the pre-parallel engine"
// guarantee).
TEST(PropertyHom, ZeroThreadsMatchesSerialWitnessExactly) {
  const uint64_t seed = TestSeed() ^ 0x2545F4914F6CDD1DULL;
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  for (int trial = 0; trial < 100; ++trial) {
    const int n = rng.UniformInt(1, 5);
    const int m = rng.UniformInt(1, 5);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, 2 * n), rng);
    const Structure b = RandomStructure(voc, m, rng.UniformInt(0, 3 * m), rng);
    EngineConfig zero_threads;
    zero_threads.num_threads = 0;
    ASSERT_EQ(FindHomomorphism(a, b, EngineConfig{}),
              FindHomomorphism(a, b, zero_threads))
        << "seed " << seed << " trial " << trial;
  }
}

// The index-aware AC engine must be bit-identical to the pure-scan AC
// engine: same witness (not merely the same existence answer) and the
// same count, because the index only skips tuples the scan rejects.
TEST(PropertyHom, IndexedEngineMatchesScanEngineExactly) {
  const uint64_t seed = TestSeed() ^ 0xD6E8FEB86659FD93ULL;
  Rng rng(seed);
  const Vocabulary voc = MixedVocabulary();
  for (int trial = 0; trial < 150; ++trial) {
    const int n = rng.UniformInt(1, 5);
    const int m = rng.UniformInt(1, 5);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, n + 3), rng);
    const Structure b =
        RandomStructure(voc, m, rng.UniformInt(0, 2 * m + 3), rng);
    EngineConfig indexed;
    EngineConfig scan;
    scan.use_index = false;
    ASSERT_EQ(FindHomomorphism(a, b, indexed), FindHomomorphism(a, b, scan))
        << "seed " << seed << " trial " << trial << "\na: " << a.DebugString()
        << "\nb: " << b.DebugString();
    ASSERT_EQ(CountHomomorphisms(a, b, /*limit=*/0, indexed),
              CountHomomorphisms(a, b, /*limit=*/0, scan))
        << "seed " << seed << " trial " << trial;
  }
}

// The factorized (Gaifman-component) search must agree with the
// monolithic engine on existence and exact counts, and both witnesses
// must pass the independent oracle (they may differ as maps: the
// factorized engine picks per-component witnesses). Sources are disjoint
// unions, sometimes with an extra isolated element, so several
// components are guaranteed; counts are compared both exact and under a
// small limit to exercise the saturating product clamp.
TEST(PropertyHom, FactorizedMatchesMonolithicOnDisconnectedSources) {
  const uint64_t seed = TestSeed() ^ 0x9E6C63D0876A9A23ULL;
  Rng rng(seed);
  const Vocabulary voc = MixedVocabulary();
  for (int trial = 0; trial < 120; ++trial) {
    const int n1 = rng.UniformInt(1, 3);
    const int n2 = rng.UniformInt(1, 3);
    const int m = rng.UniformInt(1, 5);
    const Structure part1 =
        RandomStructure(voc, n1, rng.UniformInt(0, n1 + 2), rng);
    const Structure part2 =
        RandomStructure(voc, n2, rng.UniformInt(0, n2 + 2), rng);
    Structure a = part1.DisjointUnion(part2);
    if (trial % 3 == 0) a.AddElement();  // singleton component
    const Structure b =
        RandomStructure(voc, m, rng.UniformInt(0, 2 * m + 3), rng);
    EngineConfig factorized;  // factorize defaults to true
    EngineConfig monolithic;
    monolithic.factorize = false;
    const auto fw = FindHomomorphism(a, b, factorized);
    const auto mw = FindHomomorphism(a, b, monolithic);
    ASSERT_EQ(fw.has_value(), mw.has_value())
        << "factorized/monolithic existence divergence; seed " << seed
        << " trial " << trial << "\na: " << a.DebugString()
        << "\nb: " << b.DebugString();
    if (fw.has_value()) {
      ASSERT_TRUE(CheckIsHomomorphism(a, b, *fw))
          << "factorized witness fails the oracle; seed " << seed
          << " trial " << trial << "\na: " << a.DebugString()
          << "\nb: " << b.DebugString();
      ASSERT_TRUE(CheckIsHomomorphism(a, b, *mw))
          << "monolithic witness fails the oracle; seed " << seed
          << " trial " << trial;
    }
    ASSERT_EQ(CountHomomorphisms(a, b, /*limit=*/0, factorized),
              CountHomomorphisms(a, b, /*limit=*/0, monolithic))
        << "factorized/monolithic count divergence; seed " << seed
        << " trial " << trial << "\na: " << a.DebugString()
        << "\nb: " << b.DebugString();
    const uint64_t limit = static_cast<uint64_t>(rng.UniformInt(1, 4));
    ASSERT_EQ(CountHomomorphisms(a, b, limit, factorized),
              CountHomomorphisms(a, b, limit, monolithic))
        << "factorized/monolithic limit-clamp divergence at limit " << limit
        << "; seed " << seed << " trial " << trial;
  }
}

// Mutating a structure after its index was built must invalidate the
// cache: engines running on the mutated structure answer as if the index
// never existed (compared against a fresh copy that never built one).
TEST(PropertyHom, MutationAfterIndexBuildInvalidatesCache) {
  const uint64_t seed = TestSeed() ^ 0xA3EC647659359ACDULL;
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  for (int trial = 0; trial < 60; ++trial) {
    const int n = rng.UniformInt(1, 4);
    const int m = rng.UniformInt(2, 5);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, 2 * n), rng);
    Structure b = RandomStructure(voc, m, rng.UniformInt(0, 2 * m), rng);
    // Force the lazy build, then mutate.
    (void)b.Index();
    if (trial % 2 == 0) {
      const int u = rng.UniformInt(0, b.UniverseSize() - 1);
      const int v = rng.UniformInt(0, b.UniverseSize() - 1);
      if (!b.HasTuple(0, {u, v})) b.AddTuple(0, {u, v});
    } else {
      const int fresh = b.AddElement();
      b.AddTuple(0, {fresh, rng.UniformInt(0, fresh)});
    }
    // A fresh copy never had an index; the mutated original must agree
    // with it under every engine.
    const Structure pristine = b;
    for (const Engine& engine : AllEngines()) {
      ASSERT_EQ(FindHomomorphism(a, b, engine.options).has_value(),
                FindHomomorphism(a, pristine, engine.options).has_value())
          << "engine '" << engine.name << "' stale-index divergence; seed "
          << seed << " trial " << trial << "\na: " << a.DebugString()
          << "\nb: " << b.DebugString();
      ASSERT_EQ(CountHomomorphisms(a, b, /*limit=*/0, engine.options),
                CountHomomorphisms(a, pristine, /*limit=*/0, engine.options))
          << "engine '" << engine.name << "' stale-index count; seed " << seed
          << " trial " << trial;
    }
  }
}

// Plan-vs-legacy differential: the engine's strict plan/execute path
// must be answer- AND witness-identical to the hom/homomorphism.h free
// functions for every serial configuration and every query mode. (The
// free functions plan in compatibility mode over the same engine, so
// this pins the strict planner — validation, factorization, kernel
// selection — against the normalization path rather than testing a
// layer against itself.)
TEST(PropertyHom, StrictEnginePlansMatchLegacyApiExactly) {
  const uint64_t seed = TestSeed() ^ 0x8B7A1C4D5E6F9021ULL;
  Rng rng(seed);
  const Vocabulary voc = MixedVocabulary();

  struct SerialVariant {
    std::string name;
    EngineConfig config;
  };
  std::vector<SerialVariant> variants(4);
  variants[0].name = "default";
  variants[1].name = "naive";
  variants[1].config.use_arc_consistency = false;
  variants[1].config.use_index = false;  // strict: index requires AC
  variants[2].name = "ac_noindex";
  variants[2].config.use_index = false;
  variants[3].name = "monolithic";
  variants[3].config.factorize = false;

  for (int trial = 0; trial < 80; ++trial) {
    const int n = rng.UniformInt(1, 4);
    const int m = rng.UniformInt(1, 4);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(0, n + 3), rng);
    const Structure b =
        RandomStructure(voc, m, rng.UniformInt(0, 2 * m + 3), rng);
    for (const SerialVariant& variant : variants) {
      EngineConfig legacy;
      legacy.surjective = variant.config.surjective;
      legacy.use_arc_consistency = variant.config.use_arc_consistency;
      legacy.use_index = variant.config.use_index;
      legacy.factorize = variant.config.factorize;
      const std::string where = "variant '" + variant.name + "'; seed " +
                                std::to_string(seed) + " trial " +
                                std::to_string(trial);

      Budget find_budget = Budget::Unlimited();
      ASSERT_EQ(PlanEngine::Find(a, b, find_budget, variant.config).Value(),
                FindHomomorphism(a, b, legacy))
          << "find witness divergence; " << where;

      Budget has_budget = Budget::Unlimited();
      ASSERT_EQ(PlanEngine::Has(a, b, has_budget, variant.config).Value(),
                HasHomomorphism(a, b, legacy))
          << "has divergence; " << where;

      const uint64_t limit = static_cast<uint64_t>(rng.UniformInt(0, 3));
      Budget count_budget = Budget::Unlimited();
      ASSERT_EQ(PlanEngine::Count(a, b, count_budget, limit, variant.config)
                    .Value(),
                CountHomomorphisms(a, b, limit, legacy))
          << "count divergence at limit " << limit << "; " << where;

      std::vector<std::vector<int>> engine_seen;
      std::vector<std::vector<int>> legacy_seen;
      Budget enum_budget = Budget::Unlimited();
      PlanEngine::Enumerate(
          a, b, enum_budget,
          [&](const std::vector<int>& h) {
            engine_seen.push_back(h);
            return true;
          },
          variant.config);
      EnumerateHomomorphisms(
          a, b,
          [&](const std::vector<int>& h) {
            legacy_seen.push_back(h);
            return true;
          },
          legacy);
      ASSERT_EQ(engine_seen, legacy_seen)
          << "enumeration order divergence; " << where;
    }
  }
}

// Forced-scalar differential: the same query run under the dispatched
// SIMD kernels and under ScopedSimdOverride(kScalar) must produce
// byte-identical witnesses and counts. The targets here are large enough
// (universe > 256) that the solver rows exceed the 4-word inline
// threshold and genuinely route through the vector kernels, unlike the
// small-structure trials above. On a scalar-only host this degenerates
// to scalar-vs-scalar, which still pins the override machinery.
TEST(PropertyHom, DispatchedSimdMatchesForcedScalarExactly) {
  const uint64_t seed = TestSeed() ^ 0x51D0C0DEULL;
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  for (int trial = 0; trial < 6; ++trial) {
    const int n = rng.UniformInt(3, 5);
    const int m = rng.UniformInt(260, 420);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(n, 2 * n), rng);
    const Structure b = RandomStructure(voc, m, rng.UniformInt(m, 4 * m), rng);
    const std::string where =
        "seed " + std::to_string(seed) + " trial " + std::to_string(trial);

    EngineConfig options;  // AC bitset kernel, the SIMD consumer
    const auto dispatched = FindHomomorphism(a, b, options);
    const uint64_t dispatched_count =
        CountHomomorphisms(a, b, /*limit=*/1000, options);
    std::optional<std::vector<int>> scalar;
    uint64_t scalar_count = 0;
    {
      simd::ScopedSimdOverride forced(simd::SimdLevel::kScalar);
      scalar = FindHomomorphism(a, b, options);
      scalar_count = CountHomomorphisms(a, b, /*limit=*/1000, options);
    }
    ASSERT_EQ(dispatched, scalar) << "witness divergence; " << where;
    ASSERT_EQ(dispatched_count, scalar_count)
        << "count divergence; " << where;
    if (dispatched.has_value()) {
      ASSERT_TRUE(CheckIsHomomorphism(a, b, *dispatched)) << where;
    }
  }
}

// ---------------------------------------------------------------------
// The kernel's search shortcuts: the vertex-cover cut-off (count, has,
// find and project stop descending once the assigned elements cover
// every constraint), one-sided bitwise arc revisions, and the projection
// mode. Each is checked against an oracle that takes none of them.
// ---------------------------------------------------------------------

Vocabulary NullaryMixedVocabulary() {
  Vocabulary voc;
  voc.AddRelation("P", 0);
  voc.AddRelation("U", 1);
  voc.AddRelation("E", 2);
  voc.AddRelation("T", 3);
  return voc;
}

struct ShortcutVariant {
  std::string name;
  EngineConfig config;
};

// The serial configurations the shortcuts must agree across: the AC
// kernel with and without the index (the scan path revises both sides
// of every constraint), and the naive kernel (no cut-off at all).
std::vector<ShortcutVariant> ShortcutVariants() {
  std::vector<ShortcutVariant> variants(3);
  variants[0].name = "ac";
  variants[1].name = "ac_noindex";
  variants[1].config.use_index = false;
  variants[2].name = "naive";
  variants[2].config.use_arc_consistency = false;
  variants[2].config.use_index = false;
  return variants;
}

// The projection oracle: every homomorphism, projected onto `free`,
// sorted and deduplicated — the pre-projection-mode evaluation path.
std::vector<std::vector<int>> EnumerateProjectOracle(
    const Structure& a, const Structure& b, const std::vector<int>& free,
    const EngineConfig& config) {
  std::vector<std::vector<int>> answers;
  Budget unlimited = Budget::Unlimited();
  PlanEngine::Enumerate(
      a, b, unlimited,
      [&](const std::vector<int>& h) {
        std::vector<int> answer;
        for (int e : free) answer.push_back(h[static_cast<size_t>(e)]);
        answers.push_back(std::move(answer));
        return true;
      },
      config);
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

// Runs the projection mode under `budget`; nullopt when it stopped
// short. The answers come back in emission order.
std::optional<std::vector<std::vector<int>>> Project(
    const Structure& a, const Structure& b, const std::vector<int>& free,
    const EngineConfig& config, Budget& budget) {
  std::vector<std::vector<int>> answers;
  const auto out = PlanEngine::Project(
      a, b, budget, free,
      [&](const std::vector<int>& answer) {
        answers.push_back(answer);
        return true;
      },
      config);
  if (!out.IsDone()) return std::nullopt;
  return answers;
}

// A random free-element list over `a`: possibly empty (a Boolean query),
// with repeats.
std::vector<int> RandomFree(const Structure& a, Rng& rng) {
  std::vector<int> free;
  const int arity = rng.UniformInt(0, 3);
  for (int i = 0; i < arity; ++i) {
    free.push_back(rng.UniformInt(0, a.UniverseSize() - 1));
  }
  return free;
}

TEST(PropertyHom, ProjectionMatchesEnumerateProjectOracle) {
  const uint64_t seed = TestSeed() ^ 0x3C6EF372FE94F82BULL;
  Rng rng(seed);
  const Vocabulary voc = NullaryMixedVocabulary();
  for (int trial = 0; trial < 200; ++trial) {
    const int n = rng.UniformInt(1, 5);
    const int m = rng.UniformInt(1, 6);
    Structure a = RandomStructure(voc, n, rng.UniformInt(0, n + 2), rng);
    const Structure b =
        RandomStructure(voc, m, rng.UniformInt(0, 2 * m + 3), rng);
    // An isolated element ranges over the whole target.
    if (trial % 4 == 0) a.AddElement();
    std::vector<int> free = RandomFree(a, rng);
    if (trial % 4 == 0) free.push_back(a.UniverseSize() - 1);
    std::vector<std::pair<int, int>> forced;
    if (trial % 5 == 0) {
      forced.emplace_back(rng.UniformInt(0, a.UniverseSize() - 1),
                          rng.UniformInt(0, m - 1));
    }
    for (const ShortcutVariant& variant : ShortcutVariants()) {
      EngineConfig config = variant.config;
      config.forced = forced;
      const std::string where = "variant '" + variant.name + "'; seed " +
                                std::to_string(seed) + " trial " +
                                std::to_string(trial) + "\na: " +
                                a.DebugString() + "\nb: " + b.DebugString();
      Budget unlimited = Budget::Unlimited();
      auto got = Project(a, b, free, config, unlimited);
      ASSERT_TRUE(got.has_value()) << where;
      std::vector<std::vector<int>> sorted = *got;
      std::sort(sorted.begin(), sorted.end());
      ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end())
          << "an answer was emitted twice; " << where;
      ASSERT_EQ(sorted, EnumerateProjectOracle(a, b, free, config))
          << "projected answers diverge from the oracle; " << where;
    }
  }
}

// Counts under the cut-off against the naive kernel (which never cuts):
// tree-shaped sources into larger targets give products well above 1,
// so the limits fall inside products the cut-off adds in one step and
// the clamp must cut them short.
TEST(PropertyHom, CoverCutOffCountsMatchNaiveKernel) {
  const uint64_t seed = TestSeed() ^ 0x1F83D9ABFB41BD6BULL;
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  for (int trial = 0; trial < 120; ++trial) {
    const int n = rng.UniformInt(1, 6);
    const int m = rng.UniformInt(1, 7);
    // A random tree (parent edges in either direction), plus a loop now
    // and then.
    Structure a(voc, n);
    for (int v = 1; v < n; ++v) {
      const int parent = rng.UniformInt(0, v - 1);
      if (rng.UniformInt(0, 1) == 0) {
        a.AddTuple(0, {parent, v});
      } else {
        a.AddTuple(0, {v, parent});
      }
    }
    if (trial % 6 == 0) {
      const int e = rng.UniformInt(0, n - 1);
      a.AddTuple(0, {e, e});
    }
    const Structure b = RandomStructure(voc, m, rng.UniformInt(m, 4 * m), rng);
    const bool surjective = trial % 5 == 0;
    const std::string where = "seed " + std::to_string(seed) + " trial " +
                              std::to_string(trial) + "\na: " +
                              a.DebugString() + "\nb: " + b.DebugString();
    EngineConfig naive;
    naive.use_arc_consistency = false;
    naive.use_index = false;
    naive.surjective = surjective;
    const uint64_t expected = CountHomomorphisms(a, b, /*limit=*/0, naive);
    std::vector<uint64_t> limits = {0, 1, expected + 1};
    for (uint64_t limit = 2; limit <= expected && limit <= 12; ++limit) {
      limits.push_back(limit);
    }
    for (int i = 0; i < 3 && expected > 12; ++i) {
      limits.push_back(13 + rng.Uniform(expected - 12));
    }
    for (const Engine& engine : AllEngines()) {
      EngineConfig options = engine.options;
      options.surjective = surjective;
      // The parallel drivers start a thread pool per count: they take no
      // limit and one drawn from the sweep.
      const std::vector<uint64_t> parallel_limits = {
          0, limits[rng.Uniform(limits.size())]};
      for (const uint64_t limit :
           options.num_threads > 0 ? parallel_limits : limits) {
        const uint64_t want =
            limit == 0 ? expected : std::min(expected, limit);
        ASSERT_EQ(CountHomomorphisms(a, b, limit, options), want)
            << "engine '" << engine.name << "' at limit " << limit << "; "
            << where;
      }
    }
  }
}

// The cut-off takes the first value of every remaining domain, which is
// the leaf the search reaches first: a find witness must be the first
// map the (never-cut) enumeration emits, in every serial configuration.
TEST(PropertyHom, FindWitnessIsTheFirstEnumeratedMap) {
  const uint64_t seed = TestSeed() ^ 0x5BE0CD19137E2179ULL;
  Rng rng(seed);
  const Vocabulary voc = MixedVocabulary();
  for (int trial = 0; trial < 200; ++trial) {
    const int n = rng.UniformInt(1, 5);
    const int m = rng.UniformInt(1, 6);
    Structure a = RandomStructure(voc, n, rng.UniformInt(0, n + 3), rng);
    if (trial % 5 == 0) a.AddElement();
    const Structure b =
        RandomStructure(voc, m, rng.UniformInt(0, 2 * m + 3), rng);
    for (ShortcutVariant variant : ShortcutVariants()) {
      EngineConfig& config = variant.config;
      config.factorize = false;  // enumeration is monolithic
      if (trial % 3 == 0) {
        config.forced.emplace_back(rng.UniformInt(0, a.UniverseSize() - 1),
                                   rng.UniformInt(0, m - 1));
      }
      config.surjective = trial % 7 == 0;
      std::optional<std::vector<int>> first;
      Budget enum_budget = Budget::Unlimited();
      PlanEngine::Enumerate(
          a, b, enum_budget,
          [&](const std::vector<int>& h) {
            first = h;
            return false;
          },
          config);
      Budget find_budget = Budget::Unlimited();
      ASSERT_EQ(PlanEngine::Find(a, b, find_budget, config).Value(), first)
          << "variant '" << variant.name << "'; seed " << seed << " trial "
          << trial << "\na: " << a.DebugString()
          << "\nb: " << b.DebugString();
    }
  }
}

// The unique arc-consistent fixpoint makes every node's domains
// identical whichever revision path reached them, so the indexed kernel
// (one-sided bitwise revisions) and the scan kernel (full revisions)
// visit exactly the same nodes in every mode. A revision that keeps an
// unsupported value shows up here as a different node count — often
// only there, because a later revision from an assigned element prunes
// the value before it can change an answer.
TEST(PropertyHom, IndexedAndScanKernelsVisitTheSameNodes) {
  const uint64_t seed = TestSeed() ^ 0xBB67AE8584CAA73BULL;
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  EngineConfig scan;
  scan.use_index = false;
  for (int trial = 0; trial < 800; ++trial) {
    const int n = rng.UniformInt(2, 7);
    const int m = rng.UniformInt(3, 12);
    const Structure a =
        RandomStructure(voc, n, rng.UniformInt(n - 1, 2 * n), rng);
    const Structure b = RandomStructure(voc, m, rng.UniformInt(m, 2 * m), rng);
    const std::vector<int> free = RandomFree(a, rng);
    const auto steps = [&](const EngineConfig& config) {
      Budget count_run = Budget::Unlimited();
      (void)PlanEngine::Count(a, b, count_run, /*limit=*/0, config);
      Budget find_run = Budget::Unlimited();
      (void)PlanEngine::Find(a, b, find_run, config);
      Budget project_run = Budget::Unlimited();
      (void)Project(a, b, free, config, project_run);
      return std::vector<uint64_t>{count_run.Report().steps_used,
                                   find_run.Report().steps_used,
                                   project_run.Report().steps_used};
    };
    ASSERT_EQ(steps(EngineConfig{}), steps(scan))
        << "node counts (count, find, project) differ; seed " << seed
        << " trial " << trial << "\na: " << a.DebugString()
        << "\nb: " << b.DebugString();
  }
}

// Step-capped runs: across a range of caps, count, find and project
// either finish with exactly the uncapped answer or stop short — a cap
// never turns into a wrong Done.
TEST(PropertyHom, StepCappedShortcutsAreDoneAndExactOrStoppedShort) {
  const uint64_t seed = TestSeed() ^ 0x6A09E667F3BCC908ULL;
  Rng rng(seed);
  const Vocabulary voc = GraphVocabulary();
  for (int trial = 0; trial < 40; ++trial) {
    const int n = rng.UniformInt(2, 6);
    const int m = rng.UniformInt(3, 8);
    const Structure a = RandomStructure(voc, n, rng.UniformInt(n - 1, 2 * n),
                                        rng);
    const Structure b = RandomStructure(voc, m, rng.UniformInt(m, 4 * m), rng);
    const std::vector<int> free = RandomFree(a, rng);
    const uint64_t limit = static_cast<uint64_t>(rng.UniformInt(0, 6));
    const std::string where = "seed " + std::to_string(seed) + " trial " +
                              std::to_string(trial) + "\na: " +
                              a.DebugString() + "\nb: " + b.DebugString();
    for (const ShortcutVariant& variant : ShortcutVariants()) {
      const EngineConfig& config = variant.config;
      Budget unlimited = Budget::Unlimited();
      const uint64_t want_count =
          PlanEngine::Count(a, b, unlimited, limit, config).Value();
      const auto want_witness = PlanEngine::Find(a, b, unlimited, config)
                                    .Value();
      auto want_answers = Project(a, b, free, config, unlimited);
      ASSERT_TRUE(want_answers.has_value());
      std::sort(want_answers->begin(), want_answers->end());
      for (uint64_t cap = 1; cap <= 40; ++cap) {
        const std::string at = "variant '" + variant.name + "' cap " +
                               std::to_string(cap) + "; " + where;
        Budget count_budget = Budget::MaxSteps(cap);
        const auto count = PlanEngine::Count(a, b, count_budget, limit, config);
        if (count.IsDone()) {
          ASSERT_EQ(count.Value(), want_count) << at;
        }
        Budget find_budget = Budget::MaxSteps(cap);
        const auto witness = PlanEngine::Find(a, b, find_budget, config);
        if (witness.IsDone()) {
          ASSERT_EQ(witness.Value(), want_witness) << at;
        }
        Budget project_budget = Budget::MaxSteps(cap);
        auto answers = Project(a, b, free, config, project_budget);
        if (answers.has_value()) {
          std::sort(answers->begin(), answers->end());
          ASSERT_EQ(*answers, *want_answers) << at;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hompres
