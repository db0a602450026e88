#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "graph/builders.h"
#include "hom/core.h"
#include "hom/homomorphism.h"
#include "structure/generators.h"
#include "structure/isomorphism.h"
#include "structure/structure.h"

namespace hompres {
namespace {

TEST(Homomorphism, PathMapsIntoLongerPath) {
  Structure p3 = DirectedPathStructure(3);
  Structure p5 = DirectedPathStructure(5);
  EXPECT_TRUE(HasHomomorphism(p3, p5));
  EXPECT_FALSE(HasHomomorphism(p5, p3));  // directed P5 has a 4-edge path
}

TEST(Homomorphism, CycleIntoCycleDividesLength) {
  // C_m -> C_n (directed) iff n divides m.
  EXPECT_TRUE(HasHomomorphism(DirectedCycleStructure(6),
                              DirectedCycleStructure(3)));
  EXPECT_TRUE(HasHomomorphism(DirectedCycleStructure(6),
                              DirectedCycleStructure(2)));
  EXPECT_FALSE(HasHomomorphism(DirectedCycleStructure(5),
                               DirectedCycleStructure(3)));
  EXPECT_FALSE(HasHomomorphism(DirectedCycleStructure(3),
                               DirectedCycleStructure(6)));
}

TEST(Homomorphism, PathIntoCycle) {
  // Any directed path maps into any directed cycle (wind around).
  EXPECT_TRUE(HasHomomorphism(DirectedPathStructure(7),
                              DirectedCycleStructure(3)));
}

TEST(Homomorphism, GraphColoring) {
  // Undirected-graph homomorphism into K_c = proper c-coloring.
  Structure c5 = UndirectedGraphStructure(CycleGraph(5));
  Structure k2 = UndirectedGraphStructure(CompleteGraph(2));
  Structure k3 = UndirectedGraphStructure(CompleteGraph(3));
  EXPECT_FALSE(HasHomomorphism(c5, k2));  // odd cycle not bipartite
  EXPECT_TRUE(HasHomomorphism(c5, k3));   // 3-colorable
  Structure c6 = UndirectedGraphStructure(CycleGraph(6));
  EXPECT_TRUE(HasHomomorphism(c6, k2));
}

TEST(Homomorphism, WitnessIsVerified) {
  Structure a = UndirectedGraphStructure(GridGraph(3, 3));
  Structure k2 = UndirectedGraphStructure(CompleteGraph(2));
  const auto h = FindHomomorphism(a, k2);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(VerifyHomomorphism(a, k2, *h));
}

TEST(Homomorphism, VerifyRejectsNonHomomorphism) {
  Structure p3 = DirectedPathStructure(3);
  EXPECT_FALSE(VerifyHomomorphism(p3, p3, {0, 0, 0}));  // no loop at 0
  EXPECT_TRUE(VerifyHomomorphism(p3, p3, {0, 1, 2}));
  EXPECT_FALSE(VerifyHomomorphism(p3, p3, {0, 1}));  // wrong size
}

TEST(Homomorphism, EmptySourceHasUniqueHom) {
  Structure empty(GraphVocabulary(), 0);
  Structure p2 = DirectedPathStructure(2);
  EXPECT_EQ(CountHomomorphisms(empty, p2), 1u);
  EXPECT_FALSE(HasHomomorphism(p2, empty));
}

TEST(Homomorphism, CountingPathsIntoEdge) {
  // Directed P2 (one edge) into directed P3 (edges 01, 12): maps 0->0,1->1
  // and 0->1,1->2: exactly 2.
  EXPECT_EQ(CountHomomorphisms(DirectedPathStructure(2),
                               DirectedPathStructure(3)),
            2u);
}

TEST(Homomorphism, CountWithLimitStopsEarly) {
  Structure single(GraphVocabulary(), 1);  // no tuples
  Structure big(GraphVocabulary(), 8);     // no tuples: 8 homs
  EXPECT_EQ(CountHomomorphisms(single, big), 8u);
  EXPECT_EQ(CountHomomorphisms(single, big, 3), 3u);
}

TEST(Homomorphism, ForcedAssignments) {
  Structure p2 = DirectedPathStructure(2);
  Structure p4 = DirectedPathStructure(4);
  EngineConfig options;
  options.forced = {{0, 2}};  // source edge start must map to element 2
  const auto h = FindHomomorphism(p2, p4, options);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ((*h)[0], 2);
  EXPECT_EQ((*h)[1], 3);
  options.forced = {{0, 3}};  // 3 has no outgoing edge
  EXPECT_FALSE(FindHomomorphism(p2, p4, options).has_value());
}

TEST(Homomorphism, SurjectiveWitness) {
  // C_6 -> C_3 is surjective; C_3 -> C_3 identity is surjective; but
  // P_4 -> P_4 admits non-surjective homs only if... identity is
  // surjective, so require target strictly smaller-image check instead:
  Structure c6 = DirectedCycleStructure(6);
  Structure c3 = DirectedCycleStructure(3);
  EngineConfig surjective;
  surjective.surjective = true;
  const auto h = FindHomomorphism(c6, c3, surjective);
  ASSERT_TRUE(h.has_value());
  std::vector<bool> hit(3, false);
  for (int v : *h) hit[static_cast<size_t>(v)] = true;
  EXPECT_TRUE(hit[0] && hit[1] && hit[2]);
}

TEST(Homomorphism, SurjectiveImpossibleWhenTargetLarger) {
  EngineConfig surjective;
  surjective.surjective = true;
  EXPECT_FALSE(FindHomomorphism(DirectedPathStructure(2),
                                DirectedPathStructure(4), surjective)
                   .has_value());
}

TEST(Homomorphism, NaiveBaselineAgrees) {
  Rng rng(123);
  Vocabulary voc = GraphVocabulary();
  for (int trial = 0; trial < 20; ++trial) {
    Structure a = RandomStructure(voc, 5, 6, rng);
    Structure b = RandomStructure(voc, 4, 5, rng);
    EngineConfig naive;
    naive.use_arc_consistency = false;
    EXPECT_EQ(HasHomomorphism(a, b),
              FindHomomorphism(a, b, naive).has_value())
        << a.DebugString() << " -> " << b.DebugString();
  }
}

TEST(Homomorphism, HomEquivalence) {
  // Even cycles are hom-equivalent to K2 (as undirected graphs).
  Structure c4 = UndirectedGraphStructure(CycleGraph(4));
  Structure c6 = UndirectedGraphStructure(CycleGraph(6));
  Structure k2 = UndirectedGraphStructure(CompleteGraph(2));
  EXPECT_TRUE(AreHomEquivalent(c4, k2));
  EXPECT_TRUE(AreHomEquivalent(c4, c6));
  Structure c5 = UndirectedGraphStructure(CycleGraph(5));
  EXPECT_FALSE(AreHomEquivalent(c5, k2));
}

TEST(Homomorphism, EnumerationFindsAll) {
  // Homs from a single vertex (no tuples) to P3: 3 assignments.
  Structure v1(GraphVocabulary(), 1);
  int count = 0;
  EnumerateHomomorphisms(v1, DirectedPathStructure(3),
                         [&](const std::vector<int>&) {
                           ++count;
                           return true;
                         });
  EXPECT_EQ(count, 3);
}

TEST(Homomorphism, MycielskiChromaticLadder) {
  // chi(Mycielski(G)) = chi(G) + 1: the Grötzsch graph is 4-chromatic
  // (hom to K4 but not K3) despite being triangle-free.
  Graph grotzsch = MycielskiGraph(MycielskiGraph(CompleteGraph(2)));
  Structure s = UndirectedGraphStructure(grotzsch);
  EXPECT_FALSE(
      HasHomomorphism(s, UndirectedGraphStructure(CompleteGraph(3))));
  EXPECT_TRUE(
      HasHomomorphism(s, UndirectedGraphStructure(CompleteGraph(4))));
}

TEST(Core, BipartiteCoreIsK2) {
  // Section 6.2: the core of every non-trivial bipartite graph is K_2.
  for (const Graph& g : {CycleGraph(6), GridGraph(3, 4),
                         CompleteBipartiteGraph(3, 5)}) {
    Structure a = UndirectedGraphStructure(g);
    Structure core = ComputeCore(a);
    EXPECT_EQ(core.UniverseSize(), 2);
    EXPECT_EQ(core.NumTuples(), 2);  // both orientations of one edge
    EXPECT_TRUE(AreHomEquivalent(a, core));
  }
}

TEST(Core, OddCycleIsItsOwnCore) {
  Structure c5 = UndirectedGraphStructure(CycleGraph(5));
  EXPECT_TRUE(IsCore(c5));
  EXPECT_EQ(ComputeCore(c5).UniverseSize(), 5);
}

TEST(Core, CompleteGraphIsCore) {
  Structure k4 = UndirectedGraphStructure(CompleteGraph(4));
  EXPECT_TRUE(IsCore(k4));
}

TEST(Core, DirectedCycleIsCore) {
  EXPECT_TRUE(IsCore(DirectedCycleStructure(3)));
  EXPECT_TRUE(IsCore(DirectedCycleStructure(4)));
}

TEST(Core, DirectedPathCollapses) {
  // The core of a directed path is a single edge... no: P_n maps onto an
  // edge only if it has no 2-edge path; the core of the directed path with
  // n >= 2 edges is the path with... in fact directed paths are cores? No:
  // P3 (0->1->2) cannot map to a single edge (1 would need both an
  // outgoing and incoming edge image consistent) — P3 -> edge {a->b}:
  // h(0)=a,h(1)=b,h(2)=? needs edge from b: none. P3 is a core.
  EXPECT_TRUE(IsCore(DirectedPathStructure(3)));
}

TEST(Core, WheelCores) {
  // Section 6.2: W_n is a core when n is odd (n >= 5); even wheels are
  // 4-chromatic? No: even wheels are 3-colorable... W_n with n even is
  // 3-chromatic, hence hom-equivalent to K3.
  Structure w5 = UndirectedGraphStructure(WheelGraph(5));
  EXPECT_TRUE(IsCore(w5));
  Structure w6 = UndirectedGraphStructure(WheelGraph(6));
  Structure k3 = UndirectedGraphStructure(CompleteGraph(3));
  EXPECT_TRUE(AreIsomorphic(ComputeCore(w6), k3));
}

TEST(Core, BicycleCoreIsK4) {
  // Section 6.2: the core of B_n = W_n + K_4 is K_4.
  for (int n : {3, 5, 6, 7}) {
    Structure b = UndirectedGraphStructure(BicycleGraph(n));
    Structure core = ComputeCore(b);
    Structure k4 = UndirectedGraphStructure(CompleteGraph(4));
    EXPECT_TRUE(AreIsomorphic(core, k4)) << "n=" << n;
  }
}

TEST(Core, CoreIsHomEquivalentToOriginal) {
  Rng rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    Structure a = RandomStructure(GraphVocabulary(), 6, 8, rng);
    Structure core = ComputeCore(a);
    EXPECT_TRUE(AreHomEquivalent(a, core));
    EXPECT_TRUE(IsCore(core));
    EXPECT_LE(core.UniverseSize(), a.UniverseSize());
  }
}

TEST(Core, CoreIsUniqueUpToIsomorphismAcrossEquivalents) {
  // Hom-equivalent structures have isomorphic cores: check on even cycles.
  Structure core4 = ComputeCore(UndirectedGraphStructure(CycleGraph(4)));
  Structure core8 = ComputeCore(UndirectedGraphStructure(CycleGraph(8)));
  EXPECT_TRUE(AreIsomorphic(core4, core8));
}

// Regression: a forced pair referencing an element outside either
// universe is an unsatisfiable constraint and must report "no
// homomorphism" — the search used to index domains with the raw value.
TEST(Homomorphism, ForcedPairOutOfRangeReportsNoHomomorphism) {
  Structure a = DirectedPathStructure(2);
  Structure b = DirectedCycleStructure(3);
  for (const auto& bad : std::vector<std::pair<int, int>>{
           {0, 99}, {0, -1}, {99, 0}, {-1, 0}}) {
    EngineConfig options;
    options.forced = {bad};
    EXPECT_FALSE(FindHomomorphism(a, b, options).has_value())
        << "forced (" << bad.first << ", " << bad.second << ")";
    EXPECT_EQ(CountHomomorphisms(a, b, 0, options), 0u);

    Budget budget = Budget::Unlimited();
    auto outcome = FindHomomorphismBudgeted(a, b, budget, options);
    ASSERT_TRUE(outcome.IsDone());
    EXPECT_FALSE(outcome.Value().has_value());

    // The naive and parallel engines validate the same way.
    options.use_arc_consistency = false;
    EXPECT_FALSE(FindHomomorphism(a, b, options).has_value());
    options.use_arc_consistency = true;
    options.num_threads = 3;
    EXPECT_FALSE(FindHomomorphism(a, b, options).has_value());
  }
}

TEST(Homomorphism, ForcedPairInRangeStillWorksAfterValidation) {
  // The validation must not reject legitimate boundary values.
  Structure c3 = DirectedCycleStructure(3);
  EngineConfig options;
  options.forced = {{2, 2}};  // last element of each universe
  const auto h = FindHomomorphism(c3, c3, options);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ((*h)[2], 2);
}

// Surjective mode crossed with both engines. The interesting case is a
// target with an isolated extra vertex: homomorphisms exist (ignore the
// extra vertex) but none is onto, and arc consistency alone cannot see
// that — only the surjectivity check at the leaves can.
TEST(Homomorphism, SurjectiveHomExistsButNoSurjection) {
  Structure k2 = UndirectedGraphStructure(CompleteGraph(2));
  Graph g = CompleteGraph(2);
  g.AddVertex();  // isolated vertex 2
  Structure k2_plus_isolated = UndirectedGraphStructure(g);

  EXPECT_TRUE(FindHomomorphism(k2, k2_plus_isolated).has_value());
  for (bool use_ac : {true, false}) {
    EngineConfig options;
    options.surjective = true;
    options.use_arc_consistency = use_ac;
    EXPECT_FALSE(FindHomomorphism(k2, k2_plus_isolated, options).has_value())
        << "use_arc_consistency=" << use_ac;
    EXPECT_EQ(CountHomomorphisms(k2, k2_plus_isolated, 0, options), 0u);
  }
}

TEST(Homomorphism, SurjectiveAgreesAcrossEngines) {
  // C6 -> C3: surjective homs exist; count them with AC on and off (and
  // in parallel) and check the witnesses are genuinely onto.
  Structure c6 = UndirectedGraphStructure(CycleGraph(6));
  Structure c3 = UndirectedGraphStructure(CycleGraph(3));
  EngineConfig ac;
  ac.surjective = true;
  EngineConfig naive = ac;
  naive.use_arc_consistency = false;
  EngineConfig parallel = ac;
  parallel.num_threads = 3;

  const uint64_t count_ac = CountHomomorphisms(c6, c3, 0, ac);
  EXPECT_GE(count_ac, 1u);
  EXPECT_EQ(count_ac, CountHomomorphisms(c6, c3, 0, naive));
  EXPECT_EQ(count_ac, CountHomomorphisms(c6, c3, 0, parallel));

  for (const EngineConfig& options : {ac, naive, parallel}) {
    const auto h = FindHomomorphism(c6, c3, options);
    ASSERT_TRUE(h.has_value());
    std::vector<bool> hit(3, false);
    for (int image : *h) hit[static_cast<size_t>(image)] = true;
    EXPECT_TRUE(hit[0] && hit[1] && hit[2]);
  }
}

TEST(Homomorphism, SurjectiveOntoSingleVertexNeedsLoop) {
  // Everything maps onto a loop; nothing with an edge maps onto a single
  // loopless vertex. Exercises the 1-element target corner in both
  // engines.
  Structure edge = DirectedPathStructure(2);
  Structure loopless(GraphVocabulary(), 1);
  Structure loop(GraphVocabulary(), 1);
  loop.AddTuple(0, {0, 0});
  for (bool use_ac : {true, false}) {
    EngineConfig options;
    options.surjective = true;
    options.use_arc_consistency = use_ac;
    EXPECT_FALSE(FindHomomorphism(edge, loopless, options).has_value());
    EXPECT_TRUE(FindHomomorphism(edge, loop, options).has_value());
  }
}

}  // namespace
}  // namespace hompres
