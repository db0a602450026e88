// E18 — incremental view maintenance (src/datalog/incremental.h).
// Two questions, matching DESIGN.md §4.10 and the EXPERIMENTS.md table:
//
//  1. Update-stream throughput: a MaterializedView following a stream of
//     single-tuple deltas (insert then delete, so the view is in steady
//     state and every iteration measures the same work) against the
//     forced from-scratch refixpoint baseline on the same stream. The
//     incremental/scratch ratio must grow with the base size — the
//     acceptance bar is >=5x at the largest Arg.
//  2. The bounded-UCQ sweep: a certified-bounded program is maintained
//     by counting over its optimized stage-UCQ unfolding, a plain
//     counting view by counting over its own rules. Both costs grow with
//     the delta; the batch-size sweep compares them row by row, and
//     check_regression.py keeps both rows honest.
//
// Every row labels itself with the MaintenancePlan summary of the last
// delete-side Apply ("maintain=dred ..."), so a silent strategy change
// or a degraded run shows up in the JSON diff, and exports an `agree`
// counter comparing the maintained IDB against a from-scratch
// EvaluateSemiNaive of the mutated base — a 0 is a correctness bug, not
// a slow run.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "json_main.h"

#include "base/rng.h"
#include "datalog/eval.h"
#include "datalog/incremental.h"
#include "datalog/program.h"
#include "structure/delta.h"
#include "structure/structure.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

// Directed path 0 -> 1 -> ... -> n-1 plus one spare element n with no
// incident edges: the stream's pendant edge (n-1, n) hangs off the end,
// so inserting it derives the n new TC facts (i, n) and deleting it
// DRed-overdeletes exactly those — a genuinely small delta against an
// O(n^2)-fact fixpoint.
Structure PathWithSpare(int n) {
  Structure s(GraphVocabulary(), n + 1);
  for (int i = 0; i + 1 < n; ++i) s.AddTuple(0, {i, i + 1});
  return s;
}

bool IdbAgrees(const MaterializedView& view) {
  const DatalogResult scratch =
      EvaluateSemiNaive(view.GetProgram(), view.Base());
  return scratch.idb == view.Idb();
}

int IdbTuples(const MaterializedView& view) {
  int total = 0;
  for (const auto& relation : view.Idb()) {
    total += static_cast<int>(relation.size());
  }
  return total;
}

// One stream step = insert the pendant edge, then delete it: the
// incremental view runs delta-insert then DRed; the baseline runs two
// full refixpoints. Identical start and end state either way.
void RunTcPendantStream(benchmark::State& state, bool force_scratch) {
  const int n = static_cast<int>(state.range(0));
  MaterializedViewOptions options;
  options.force_from_scratch = force_scratch;
  MaterializedView view(DatalogProgram::TransitiveClosure(),
                        PathWithSpare(n), options);
  StructureDelta insert;
  insert.InsertTuple(0, {n - 1, n});
  StructureDelta remove;
  remove.RemoveTuple(0, {n - 1, n});
  ViewMaintenanceStats last;
  long long derivations = 0;
  for (auto _ : state) {
    const ViewMaintenanceStats ins = view.Apply(insert);
    last = view.Apply(remove);
    derivations = ins.derivations + last.derivations;
    benchmark::DoNotOptimize(view.Idb());
  }
  state.SetLabel(last.plan.Summary());
  state.counters["derivations_per_step"] = static_cast<double>(derivations);
  state.counters["idb_tuples"] = static_cast<double>(IdbTuples(view));
  state.counters["agree"] = IdbAgrees(view) ? 1.0 : 0.0;
}

void BM_TcPendantStreamIncremental(benchmark::State& state) {
  RunTcPendantStream(state, /*force_scratch=*/false);
}
BENCHMARK(BM_TcPendantStreamIncremental)->Arg(64)->Arg(256)->Arg(512);

void BM_TcPendantStreamScratch(benchmark::State& state) {
  RunTcPendantStream(state, /*force_scratch=*/true);
}
BENCHMARK(BM_TcPendantStreamScratch)->Arg(64)->Arg(256)->Arg(512);

// --- Non-recursive stream: counting vs from-scratch. ---

// Random digraph with 3n edges and one reserved absent edge (0, n-1)
// for the stream (the generator never emits it: a != 0 guards it).
Structure RandomDigraph(int n, uint64_t seed) {
  Rng rng(seed);
  Structure s(GraphVocabulary(), n);
  int added = 0;
  while (added < 3 * n) {
    const int a = 1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(n - 1)));
    const int b = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
    if (a == b) continue;
    if (s.AddTuple(0, {a, b})) ++added;
  }
  return s;
}

void RunTwoStepStream(benchmark::State& state, bool force_scratch) {
  const int n = static_cast<int>(state.range(0));
  MaterializedViewOptions options;
  options.force_from_scratch = force_scratch;
  // Boundedness probe off: this pair isolates counting maintenance; the
  // batch sweep below is where bounded-UCQ gets its turn.
  options.max_bounded_stage = 0;
  MaterializedView view(DatalogProgram::TwoStepReachability(),
                        RandomDigraph(n, /*seed=*/0x5eed0018), options);
  StructureDelta insert;
  insert.InsertTuple(0, {0, n - 1});
  StructureDelta remove;
  remove.RemoveTuple(0, {0, n - 1});
  ViewMaintenanceStats last;
  long long derivations = 0;
  for (auto _ : state) {
    const ViewMaintenanceStats ins = view.Apply(insert);
    last = view.Apply(remove);
    derivations = ins.derivations + last.derivations;
    benchmark::DoNotOptimize(view.Idb());
  }
  state.SetLabel(last.plan.Summary());
  state.counters["derivations_per_step"] = static_cast<double>(derivations);
  state.counters["idb_tuples"] = static_cast<double>(IdbTuples(view));
  state.counters["agree"] = IdbAgrees(view) ? 1.0 : 0.0;
}

void BM_TwoStepStreamCounting(benchmark::State& state) {
  RunTwoStepStream(state, /*force_scratch=*/false);
}
BENCHMARK(BM_TwoStepStreamCounting)->Arg(64)->Arg(256)->Arg(512);

void BM_TwoStepStreamScratch(benchmark::State& state) {
  RunTwoStepStream(state, /*force_scratch=*/true);
}
BENCHMARK(BM_TwoStepStreamScratch)->Arg(64)->Arg(256)->Arg(512);

// --- Bounded-UCQ vs counting sweep. ---
//
// Fixed 96-element base, batch size B swept across the Args. The same
// two-step program is maintained twice: once with the boundedness probe
// on (the planner picks bounded-ucq: counting over the optimized
// stage-UCQ unfolding) and once with it off (counting over the
// program's own rules). Both costs grow with B; derivations_per_step
// shows the join work behind each row. EXPERIMENTS.md records the
// table.
constexpr int kCrossoverUniverse = 96;

// B distinct edges absent from the base graph, chosen deterministically.
std::vector<std::pair<int, int>> AbsentEdges(const Structure& base, int count,
                                             uint64_t seed) {
  Rng rng(seed);
  std::set<std::pair<int, int>> picked;
  const int n = base.UniverseSize();
  while (static_cast<int>(picked.size()) < count) {
    const int a = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
    const int b = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
    if (a == b || a == 0) continue;  // (0, *) is the stream pair's reserve
    if (base.HasTuple(0, {a, b})) continue;
    picked.insert({a, b});
  }
  return {picked.begin(), picked.end()};
}

void RunCrossoverBatch(benchmark::State& state, int max_bounded_stage) {
  const int batch = static_cast<int>(state.range(0));
  const Structure base =
      RandomDigraph(kCrossoverUniverse, /*seed=*/0x5eed0018);
  const std::vector<std::pair<int, int>> fresh =
      AbsentEdges(base, batch, /*seed=*/0xc305507e);
  MaterializedViewOptions options;
  options.max_bounded_stage = max_bounded_stage;
  MaterializedView view(DatalogProgram::TwoStepReachability(), base, options);
  StructureDelta insert;
  StructureDelta remove;
  for (const auto& [a, b] : fresh) {
    insert.InsertTuple(0, {a, b});
    remove.RemoveTuple(0, {a, b});
  }
  ViewMaintenanceStats last;
  long long derivations = 0;
  for (auto _ : state) {
    const ViewMaintenanceStats ins = view.Apply(insert);
    last = view.Apply(remove);
    derivations = ins.derivations + last.derivations;
    benchmark::DoNotOptimize(view.Idb());
  }
  state.SetLabel(last.plan.Summary());
  state.counters["derivations_per_step"] = static_cast<double>(derivations);
  state.counters["delta_tuples"] = static_cast<double>(batch);
  state.counters["bounded"] = view.Bounded() ? 1.0 : 0.0;
  state.counters["idb_tuples"] = static_cast<double>(IdbTuples(view));
  state.counters["agree"] = IdbAgrees(view) ? 1.0 : 0.0;
}

void BM_CrossoverBoundedUcq(benchmark::State& state) {
  RunCrossoverBatch(state, /*max_bounded_stage=*/2);
}
BENCHMARK(BM_CrossoverBoundedUcq)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_CrossoverCounting(benchmark::State& state) {
  RunCrossoverBatch(state, /*max_bounded_stage=*/0);
}
BENCHMARK(BM_CrossoverCounting)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace hompres

HOMPRES_BENCHMARK_MAIN()
