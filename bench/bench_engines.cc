// E14 — Engine baselines: arc-consistency vs naive homomorphism search,
// exact vs heuristic treewidth, and core computation cost. These ablate
// the design choices DESIGN.md calls out (the solver architecture is the
// substrate every theorem-level experiment stands on).

#include <benchmark/benchmark.h>

#include "json_main.h"

#include <algorithm>
#include <vector>

#include "base/budget.h"
#include "base/rng.h"
#include "graph/builders.h"
#include "cq/cq.h"
#include "cq/decomposed_eval.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/problem.h"
#include "hom/core.h"
#include "hom/homomorphism.h"
#include "structure/gaifman.h"
#include "structure/generators.h"
#include "structure/vocabulary.h"
#include "tw/tree_decomposition.h"

namespace hompres {
namespace {

// Hard coloring (homomorphism) instances: iterated Mycielski graphs are
// triangle-free with chromatic number rising by one per level, so
// "level-L Mycielskian -> K_{L+1}" is unsatisfiable and forces real
// search. Level 1 = C5 (Mycielskian of K2), level 2 = the Grötzsch graph
// (11 vertices), level 3 = 23 vertices.
Structure MycielskiInstance(int level) {
  Graph g = CompleteGraph(2);
  for (int i = 0; i < level; ++i) g = MycielskiGraph(g);
  return UndirectedGraphStructure(g);
}

// Labels the row with the engine's plan summary for the query the
// benchmark body runs; --json emits the label as the "plan" field, and
// bench/check_regression.py flags rows whose summary changed.
void LabelPlan(benchmark::State& state, const Structure& a,
               const Structure& b, HomQueryMode mode,
               const EngineConfig& options = {}) {
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = mode;
  const PlanResult planned =
      PlanHomQuery(problem, options, PlanMode::kCompat);
  state.SetLabel(planned.plan->Summary());
}

void BM_HomomorphismWithAC(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  Structure a = MycielskiInstance(level);
  // chi = level + 2, so level+1 colors are not enough: unsatisfiable.
  Structure target = UndirectedGraphStructure(CompleteGraph(level + 1));
  bool sat = true;
  for (auto _ : state) {
    auto h = FindHomomorphism(a, target);
    sat = h.has_value();
    benchmark::DoNotOptimize(h);
  }
  state.counters["satisfiable"] = sat ? 1.0 : 0.0;
  LabelPlan(state, a, target, HomQueryMode::kFind);
}

BENCHMARK(BM_HomomorphismWithAC)->Arg(1)->Arg(2)->Arg(3);

void BM_HomomorphismNaive(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  Structure a = MycielskiInstance(level);
  Structure target = UndirectedGraphStructure(CompleteGraph(level + 1));
  EngineConfig naive;
  naive.use_arc_consistency = false;
  bool sat = true;
  for (auto _ : state) {
    auto h = FindHomomorphism(a, target, naive);
    sat = h.has_value();
    benchmark::DoNotOptimize(h);
  }
  state.counters["satisfiable"] = sat ? 1.0 : 0.0;
  LabelPlan(state, a, target, HomQueryMode::kFind, naive);
}

BENCHMARK(BM_HomomorphismNaive)->Arg(1)->Arg(2)->Iterations(3);

// Serial vs parallel engine on the same adversarial family. Args are
// {level, threads}; threads = 0 is the serial engine, so comparing rows
// with equal level gives the parallel speedup (expect ~linear scaling up
// to the core count on the unsatisfiable instances: the subtree tasks
// partition the search space with little overlap).
void BM_HomomorphismParallel(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  Structure a = MycielskiInstance(level);
  Structure target = UndirectedGraphStructure(CompleteGraph(level + 1));
  EngineConfig options;
  options.num_threads = static_cast<int>(state.range(1));
  bool sat = true;
  for (auto _ : state) {
    auto h = FindHomomorphism(a, target, options);
    sat = h.has_value();
    benchmark::DoNotOptimize(h);
  }
  state.counters["satisfiable"] = sat ? 1.0 : 0.0;
  state.counters["threads"] = static_cast<double>(options.num_threads);
  LabelPlan(state, a, target, HomQueryMode::kFind, options);
}

BENCHMARK(BM_HomomorphismParallel)
    ->Args({2, 0})
    ->Args({2, 2})
    ->Args({2, 4})
    ->Args({3, 0})
    ->Args({3, 2})
    ->Args({3, 4});

// Core computation with parallel retraction searches; rows with equal n
// compare the serial (threads = 0) and fanned-out candidate checks.
void BM_CoreComputationParallel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Structure b = UndirectedGraphStructure(BicycleGraph(n));
  for (auto _ : state) {
    Structure core = ComputeCore(b, threads);
    benchmark::DoNotOptimize(core);
  }
  state.counters["threads"] = static_cast<double>(threads);
}

BENCHMARK(BM_CoreComputationParallel)
    ->Args({9, 0})
    ->Args({9, 2})
    ->Args({9, 4});

void BM_ExactTreewidth(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(31);
  Graph g = RandomGraph(n, 0.3, rng);
  int tw = 0;
  for (auto _ : state) {
    tw = ExactTreewidth(g);
    benchmark::DoNotOptimize(tw);
  }
  state.counters["treewidth"] = static_cast<double>(tw);
}

BENCHMARK(BM_ExactTreewidth)->Arg(8)->Arg(12)->Arg(16);

void BM_HeuristicTreewidth(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(31);
  Graph g = RandomGraph(n, 0.3, rng);
  int width = 0;
  for (auto _ : state) {
    width = TreewidthUpperBound(g);
    benchmark::DoNotOptimize(width);
  }
  state.counters["heuristic_width"] = static_cast<double>(width);
  state.counters["exact_width"] =
      n <= 16 ? static_cast<double>(ExactTreewidth(g)) : -1.0;
}

BENCHMARK(BM_HeuristicTreewidth)->Arg(8)->Arg(16)->Arg(32);

void BM_CoreComputation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Structure b = UndirectedGraphStructure(BicycleGraph(n));
  for (auto _ : state) {
    Structure core = ComputeCore(b);
    benchmark::DoNotOptimize(core);
  }
}

BENCHMARK(BM_CoreComputation)->Arg(5)->Arg(7)->Arg(9);

// Bounded-treewidth DP evaluation (Dechter-Pearl) vs the generic
// backtracking solver on long path queries: the DP's |B|^{w+1} bound is
// the tractability result the paper's introduction cites.
void BM_PathQueryViaTreewidthDp(benchmark::State& state) {
  const int query_length = static_cast<int>(state.range(0));
  const int target_size = static_cast<int>(state.range(1));
  ConjunctiveQuery q = ConjunctiveQuery::BooleanQueryOf(
      DirectedPathStructure(query_length));
  Rng rng(41);
  Structure b =
      RandomStructure(GraphVocabulary(), target_size, 3 * target_size, rng);
  const TreeDecomposition td =
      ExactTreeDecomposition(GaifmanGraph(q.Canonical()));
  bool result = false;
  for (auto _ : state) {
    result = SatisfiedByTreewidthDp(q, b, td);
    benchmark::DoNotOptimize(result);
  }
  state.counters["satisfied"] = result ? 1.0 : 0.0;
}

BENCHMARK(BM_PathQueryViaTreewidthDp)
    ->Args({8, 10})
    ->Args({8, 20})
    ->Args({16, 20});

void BM_PathQueryViaSolver(benchmark::State& state) {
  const int query_length = static_cast<int>(state.range(0));
  const int target_size = static_cast<int>(state.range(1));
  ConjunctiveQuery q = ConjunctiveQuery::BooleanQueryOf(
      DirectedPathStructure(query_length));
  Rng rng(41);
  Structure b =
      RandomStructure(GraphVocabulary(), target_size, 3 * target_size, rng);
  bool result = false;
  for (auto _ : state) {
    result = q.SatisfiedBy(b);
    benchmark::DoNotOptimize(result);
  }
  state.counters["satisfied"] = result ? 1.0 : 0.0;
}

BENCHMARK(BM_PathQueryViaSolver)
    ->Args({8, 10})
    ->Args({8, 20})
    ->Args({16, 20});

// Index-aware vs pure-scan AC-3 propagation: counting embeddings of a
// short directed path in a large sparse random digraph. Propagation
// dominates here, and each revision touches only the inverted list of
// the one bound endpoint instead of scanning every edge, so rows with
// equal target size give the index speedup (counts are identical by
// construction).
void RunPathCountEngines(benchmark::State& state, bool use_index) {
  const int target_size = static_cast<int>(state.range(0));
  Structure path = DirectedPathStructure(5);
  Rng rng(47);
  Structure b =
      RandomStructure(GraphVocabulary(), target_size, 4 * target_size, rng);
  EngineConfig options;
  options.use_index = use_index;
  uint64_t count = 0;
  for (auto _ : state) {
    count = CountHomomorphisms(path, b, /*limit=*/0, options);
    benchmark::DoNotOptimize(count);
  }
  state.counters["hom_count"] = static_cast<double>(count);
  // Search nodes per count: the vertex-cover cut-off stops the search
  // once the assigned path elements cover every edge.
  Budget budget = Budget::Unlimited();
  (void)CountHomomorphismsBudgeted(path, b, budget, /*limit=*/0, options);
  state.counters["steps"] = static_cast<double>(budget.Report().steps_used);
  LabelPlan(state, path, b, HomQueryMode::kCount, options);
}

void BM_PathCountIndexed(benchmark::State& state) {
  RunPathCountEngines(state, /*use_index=*/true);
}

// The 1024-element target puts 16 words in every domain row, so the AC-3
// revisions run on the dispatched SIMD kernels; the smaller rows stay on
// the inline scalar path and preserve the historical baseline. The scan
// ablation skips 1024: without the index (and hence without the bitwise
// adjacency rows) each revision rescans all ~3n tuples and a single
// iteration takes tens of seconds.
BENCHMARK(BM_PathCountIndexed)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

void BM_PathCountScan(benchmark::State& state) {
  RunPathCountEngines(state, /*use_index=*/false);
}

BENCHMARK(BM_PathCountScan)->Arg(64)->Arg(128)->Arg(256);

void BM_HomomorphismCounting(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Structure cycle = UndirectedGraphStructure(CycleGraph(5));
  Structure target = UndirectedGraphStructure(CompleteGraph(n));
  uint64_t count = 0;
  for (auto _ : state) {
    count = CountHomomorphisms(cycle, target);
    benchmark::DoNotOptimize(count);
  }
  state.counters["hom_count"] = static_cast<double>(count);
  LabelPlan(state, cycle, target, HomQueryMode::kCount);
}

BENCHMARK(BM_HomomorphismCounting)->Arg(3)->Arg(4)->Arg(5);

// A random connected digraph: a random spanning tree with random edge
// directions, plus further edges up to `edges`.
Structure RandomConnectedDigraph(int n, int edges, Rng& rng) {
  Structure a(GraphVocabulary(), n);
  for (int v = 1; v < n; ++v) {
    const int u = rng.UniformInt(0, v - 1);
    if (rng.UniformInt(0, 1) == 0) {
      a.AddTuple(0, {u, v});
    } else {
      a.AddTuple(0, {v, u});
    }
  }
  while (static_cast<int>(a.Tuples(0).size()) < edges) {
    const int u = rng.UniformInt(0, n - 1);
    const int v = rng.UniformInt(0, n - 1);
    if (u != v) a.AddTuple(0, {u, v});
  }
  return a;
}

// Every vertex gets `degree` distinct random out-neighbours.
Structure RandomOutRegularDigraph(int n, int degree, Rng& rng) {
  Structure b(GraphVocabulary(), n);
  for (int u = 0; u < n; ++u) {
    int added = 0;
    while (added < degree) {
      const int v = rng.UniformInt(0, n - 1);
      if (v != u && b.AddTuple(0, {u, v})) ++added;
    }
  }
  return b;
}

// CQ evaluation by projection: 16 connected 6-vertex, 6-edge queries
// with 1 or 2 free variables (the arg) on a 64-vertex out-degree-3
// target. `agree` checks every answer set against the enumerate,
// project, sort and dedup path; `steps` is the search nodes per query
// and `answers` the answers per query.
void BM_CqEvaluate(benchmark::State& state) {
  const int arity = static_cast<int>(state.range(0));
  Rng rng(53);
  const Structure b = RandomOutRegularDigraph(64, 3, rng);
  std::vector<ConjunctiveQuery> queries;
  for (int i = 0; i < 16; ++i) {
    std::vector<int> free = {0};
    if (arity == 2) free.push_back(rng.UniformInt(1, 5));
    queries.emplace_back(RandomConnectedDigraph(6, 6, rng), free);
  }
  size_t answers = 0;
  for (auto _ : state) {
    answers = 0;
    for (const ConjunctiveQuery& q : queries) answers += q.Evaluate(b).size();
    benchmark::DoNotOptimize(answers);
  }
  bool agree = true;
  uint64_t steps = 0;
  for (const ConjunctiveQuery& q : queries) {
    std::vector<Tuple> oracle;
    EnumerateHomomorphisms(q.Canonical(), b, [&](const std::vector<int>& h) {
      Tuple answer;
      for (int e : q.FreeElements()) {
        answer.push_back(h[static_cast<size_t>(e)]);
      }
      oracle.push_back(std::move(answer));
      return true;
    });
    std::sort(oracle.begin(), oracle.end());
    oracle.erase(std::unique(oracle.begin(), oracle.end()), oracle.end());
    agree = agree && q.Evaluate(b) == oracle;
    Budget budget = Budget::Unlimited();
    (void)Engine::Project(q.Canonical(), b, budget, q.FreeElements(),
                          [](const std::vector<int>&) { return true; });
    steps += budget.Report().steps_used;
  }
  const double num_queries = static_cast<double>(queries.size());
  state.counters["agree"] = agree ? 1.0 : 0.0;
  state.counters["steps"] = static_cast<double>(steps) / num_queries;
  state.counters["answers"] = static_cast<double>(answers) / num_queries;
}

BENCHMARK(BM_CqEvaluate)->Arg(1)->Arg(2);

}  // namespace
}  // namespace hompres

HOMPRES_BENCHMARK_MAIN()
