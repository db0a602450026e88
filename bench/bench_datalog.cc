// E10 + E12 — Theorem 7.1 and the Ajtai-Gurevich Theorem (7.5): Datalog
// stage unfolding into CQ^k disjunctions, naive vs semi-naive evaluation,
// and boundedness detection (bounded programs stabilize their stage
// formulas; transitive closure never does).

#include <optional>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "datalog_scan_oracle.h"
#include "json_main.h"

#include "base/rng.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "datalog/stages.h"
#include "structure/generators.h"
#include "structure/vocabulary.h"

namespace hompres {
namespace {

void BM_TransitiveClosureNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Structure p = DirectedPathStructure(n);
  DatalogResult result;
  for (auto _ : state) {
    result = EvaluateNaive(tc, p);
    benchmark::DoNotOptimize(result);
  }
  state.counters["stages"] = static_cast<double>(result.stages);
  state.counters["derivations"] =
      static_cast<double>(result.derivations);
}

BENCHMARK(BM_TransitiveClosureNaive)->Arg(8)->Arg(16)->Arg(32);

void BM_TransitiveClosureSemiNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Structure p = DirectedPathStructure(n);
  DatalogResult result;
  for (auto _ : state) {
    result = EvaluateSemiNaive(tc, p);
    benchmark::DoNotOptimize(result);
  }
  state.counters["stages"] = static_cast<double>(result.stages);
  state.counters["derivations"] =
      static_cast<double>(result.derivations);
}

BENCHMARK(BM_TransitiveClosureSemiNaive)->Arg(8)->Arg(16)->Arg(32);

// Indexed (compiled rules + bound-prefix lookups) vs pure-scan semi-naive
// evaluation on transitive closure over random sparse digraphs. Rows with
// equal n give the index speedup; both engines reach the identical
// fixpoint (the `facts` counter), the scan (the test oracle of
// tests/datalog_scan_oracle.h) just enumerates the full E x T cross
// product per round where the indexed join binds z.
void RunTransitiveClosureEngines(
    benchmark::State& state,
    DatalogResult (*evaluate)(const DatalogProgram&, const Structure&)) {
  const int n = static_cast<int>(state.range(0));
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Rng rng(7);
  Structure g = RandomStructure(GraphVocabulary(), n, 3 * n, rng);
  DatalogResult result;
  for (auto _ : state) {
    result = evaluate(tc, g);
    benchmark::DoNotOptimize(result);
  }
  state.counters["facts"] = static_cast<double>(result.idb[0].size());
  state.counters["derivations"] = static_cast<double>(result.derivations);
}

void BM_TransitiveClosureIndexed(benchmark::State& state) {
  RunTransitiveClosureEngines(
      state, [](const DatalogProgram& program, const Structure& edb) {
        return EvaluateSemiNaive(program, edb);
      });
}

BENCHMARK(BM_TransitiveClosureIndexed)->Arg(32)->Arg(64)->Arg(128);

void BM_TransitiveClosureScan(benchmark::State& state) {
  RunTransitiveClosureEngines(state, ScanEvaluateSemiNaive);
}

BENCHMARK(BM_TransitiveClosureScan)->Arg(32)->Arg(64)->Arg(128);

void BM_StageUnfolding(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  size_t disjuncts = 0;
  for (auto _ : state) {
    UnionOfCq theta = StageUcq(tc, 0, m);
    disjuncts = theta.Disjuncts().size();
    benchmark::DoNotOptimize(theta);
  }
  // Theorem 7.1: stage m of TC is the union of the m path queries.
  state.counters["disjuncts"] = static_cast<double>(disjuncts);
}

BENCHMARK(BM_StageUnfolding)->Arg(1)->Arg(2)->Arg(4)->Arg(6);

void BM_StageFormulaMatchesOperator(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  DatalogProgram tc = DatalogProgram::TransitiveClosure();
  Rng rng(3);
  long long checked = 0;
  long long agreements = 0;
  UnionOfCq theta = StageUcq(tc, 0, m);
  for (auto _ : state) {
    Structure edb = RandomStructure(GraphVocabulary(), 4, 6, rng);
    const auto stage = Stage(tc, edb, m)[0];
    const auto answers = theta.Evaluate(edb);
    ++checked;
    if (std::set<Tuple>(answers.begin(), answers.end()) == stage) {
      ++agreements;
    }
  }
  state.counters["agreement"] =
      static_cast<double>(agreements) / static_cast<double>(checked);
}

BENCHMARK(BM_StageFormulaMatchesOperator)->Arg(1)->Arg(2)->Arg(3);

// S(x) <- E(x,x).  S(x) <- E(x,x), S(x).  The rules are filled in field
// by field: gcc 12 warns -Wmaybe-uninitialized inside std::string on
// brace-initialised DatalogRule temporaries.
DatalogProgram VacuouslyRecursiveProgram() {
  DatalogAtom s;
  s.relation = "S";
  s.arguments.push_back("x");
  DatalogAtom loop;
  loop.relation = "E";
  loop.arguments.push_back("x");
  loop.arguments.push_back("x");
  std::vector<DatalogRule> rules(2);
  rules[0].head = s;
  rules[0].body.push_back(loop);
  rules[1].head = s;
  rules[1].body.push_back(loop);
  rules[1].body.push_back(s);
  return DatalogProgram(GraphVocabulary(), std::move(rules));
}

void BM_BoundednessWitnessSearch(benchmark::State& state) {
  // Ajtai-Gurevich probe on three programs: unbounded TC (no witness),
  // non-recursive 2-step reachability (witness at 1), and a vacuously
  // recursive bounded program (witness at 1).
  const int which = static_cast<int>(state.range(0));
  DatalogProgram program =
      which == 0 ? DatalogProgram::TransitiveClosure()
                 : (which == 1 ? DatalogProgram::TwoStepReachability()
                               : VacuouslyRecursiveProgram());
  std::optional<int> witness;
  for (auto _ : state) {
    witness = FindBoundednessWitness(program, 0, 4);
    benchmark::DoNotOptimize(witness);
  }
  state.counters["bounded"] = witness.has_value() ? 1.0 : 0.0;
  state.counters["witness_stage"] =
      witness.has_value() ? static_cast<double>(*witness) : -1.0;
}

BENCHMARK(BM_BoundednessWitnessSearch)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace hompres

HOMPRES_BENCHMARK_MAIN()
