// pipeline_thm31: Theorem 3.1 as a CLI user runs it, in-process with no
// daemon: parse a sentence, then PreservationPipeline with search and
// verify universes of 3 on one of the four classes.

#include <optional>

#include "base/budget.h"
#include "core/classes.h"
#include "core/minimal_models.h"
#include "core/preservation.h"
#include "cq/ucq.h"
#include "fo/eval.h"
#include "fo/parser.h"
#include "hom/hom_cache.h"
#include "host.h"
#include "opt/containment_cache.h"
#include "opt/optimizer.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {

using hompres::FormulaPtr;
using hompres::PreservationResult;
using hompres::Structure;
using hompres::StructureClass;

namespace {

constexpr int kUniverse = 3;  // search and verify universes

std::vector<StructureClass> Classes() {
  return {hompres::BoundedDegreeClass(2), hompres::BoundedTreewidthClass(2),
          hompres::ExcludesMinorClass(4), hompres::AllStructuresClass()};
}

// Time and count of calls folded into one aggregate span.
struct CallTimer {
  int64_t ns = 0;
  int64_t calls = 0;

  template <typename F>
  auto Time(F&& f) {
    const int64_t start = NowNs();
    auto value = f();
    ns += NowNs() - start;
    ++calls;
    return value;
  }
  void FlushTo(Tracer* t, const char* name, int64_t op) {
    t->Aggregate(name, op, ns, calls);
    *this = {};
  }
};

struct PipelineCounters {
  uint64_t optimize_calls = 0;
  uint64_t disjuncts_in = 0;
  uint64_t disjuncts_out = 0;
  uint64_t containment_tests = 0;
  uint64_t degradations = 0;
  uint64_t scanned = 0;
};

// The stages of PreservationPipelineBudgeted, called one by one under
// spans: the same public functions in the same order on one budget.
PreservationResult TracedPipeline(Tracer* t, int64_t op,
                                  const FormulaPtr& formula,
                                  const StructureClass& c,
                                  PipelineCounters* counters) {
  const hompres::Vocabulary vocabulary = hompres::GraphVocabulary();
  CallTimer eval;
  const hompres::BooleanQuery q = [&](const Structure& a) {
    return eval.Time([&] { return hompres::EvaluateSentence(a, formula); });
  };
  hompres::Budget budget = hompres::Budget::Unlimited();
  PreservationResult result;
  result.search_universe = kUniverse;
  result.verify_universe = kUniverse;
  {
    ScopedSpan span(t, "core.minimal_models", op);
    result.minimal_models = hompres::MinimalModelsBySearchBudgeted(
                                q, vocabulary, c, kUniverse, budget)
                                .TakeValue();
    eval.FlushTo(t, "fo.eval", op);
  }
  std::optional<hompres::UnionOfCq> from_models;
  {
    ScopedSpan span(t, "core.ucq_from_models", op);
    from_models = hompres::UcqFromMinimalModels(result.minimal_models);
  }
  {
    ScopedSpan span(t, "opt.optimize", op);
    hompres::OptimizerStats stats;
    result.equivalent_ucq =
        hompres::OptimizeUcqBudgeted(*from_models, budget, {}, &stats);
    ++counters->optimize_calls;
    counters->disjuncts_in += static_cast<uint64_t>(stats.input_disjuncts);
    counters->disjuncts_out += static_cast<uint64_t>(stats.output_disjuncts);
    counters->containment_tests += stats.containment_tests;
    counters->degradations += stats.degradations.size();
  }
  {
    ScopedSpan span(t, "core.verify", op);
    CallTimer satisfied;
    bool all_agree = true;
    (void)hompres::ForEachStructureInClassBudgeted(
        vocabulary, kUniverse, c, budget, [&](const Structure& a) {
          ++counters->scanned;
          const bool by_sentence = q(a);
          const bool by_ucq = satisfied.Time(
              [&] { return result.equivalent_ucq.SatisfiedBy(a); });
          all_agree = by_sentence == by_ucq;
          return all_agree;
        });
    eval.FlushTo(t, "fo.eval", op);
    satisfied.FlushTo(t, "cq.satisfied", op);
    result.verified = all_agree;
  }
  return result;
}

}  // namespace

RunResult RunPipelineThm31(const RunOptions& options, Tracer* tracer) {
  RunResult result;
  const hompres::Vocabulary vocabulary = hompres::GraphVocabulary();
  // Setup: the class objects plus one fixed sentence through each class
  // from cold caches, the start-up a CLI user pays before a stream.
  const auto warmup = hompres::ParseFormula(
      "exists x exists y exists z (E(x,y) & (E(y,z) | E(y,x)))");
  std::vector<StructureClass> classes;
  const auto time_setups = [&] {
    for (int rep = 0; rep < kSetupRepetitions; ++rep) {
      hompres::HomCache::Global().Clear();
      hompres::ContainmentCache::Global().Clear();
      const int64_t start = NowNs();
      classes = Classes();
      for (const StructureClass& c : classes) {
        if (!hompres::PreservationPipeline(*warmup, vocabulary, c, kUniverse,
                                           kUniverse)
                 .verified) {
          result.Fail("the setup sentence did not verify on " + c.name);
          return false;
        }
      }
      result.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
    return true;
  };
  if (!time_setups()) return result;
  hompres::HomCache::Global().Clear();
  hompres::ContainmentCache::Global().Clear();

  PipelineCounters counters;
  const CacheCounters caches_before = CacheCounters::Now();
  SentenceStream stream(options.seed);
  result.latency_us.reserve(static_cast<size_t>(options.ops));
  int64_t busy_ns = 0;
  for (int64_t i = 0; i < options.ops; ++i) {
    const Sentence sentence = stream.Next();
    const StructureClass& c = classes[static_cast<size_t>(sentence.class_index)];
    ++result.attempted;
    std::optional<FormulaPtr> formula;
    PreservationResult outcome;
    int64_t start = 0;
    int64_t end = 0;
    if (tracer == nullptr) {
      start = NowNs();
      formula = hompres::ParseFormula(sentence.text);
      if (formula.has_value()) {
        outcome = hompres::PreservationPipeline(*formula, vocabulary, c,
                                                kUniverse, kUniverse);
      }
      end = NowNs();
    } else {
      const int32_t root = tracer->Begin("replay", i);
      {
        ScopedSpan span(tracer, "fo.parse", i);
        formula = hompres::ParseFormula(sentence.text);
      }
      if (formula.has_value()) {
        outcome = TracedPipeline(tracer, i, *formula, c, &counters);
      }
      tracer->End(root);
      const Span& span = tracer->Spans()[static_cast<size_t>(root)];
      start = span.start_ns;
      end = span.end_ns;
    }
    busy_ns += end - start;
    result.Complete(end - start, busy_ns);
    // The check needs this op's result, so it runs here, off the clock;
    // it reads no process-wide cache.
    const std::string failure =
        formula.has_value()
            ? CheckPipelineResult(sentence, *formula, outcome)
            : "sentence does not parse";
    if (!failure.empty()) {
      result.Fail("sentence " + std::to_string(i) + " (" + sentence.text +
                  ", " + ClassName(sentence.class_index) + "): " + failure);
    }
  }
  if (tracer != nullptr) {
    CacheCounters caches;
    caches.AddDelta(caches_before, CacheCounters::Now());
    caches.Report(&result);
    auto& layer = result.layer;
    layer["opt.disjuncts_in"] = Ratio(counters.disjuncts_in, counters.optimize_calls);
    layer["opt.disjuncts_out"] =
        Ratio(counters.disjuncts_out, counters.optimize_calls);
    layer["opt.containment_tests"] =
        Ratio(counters.containment_tests, counters.optimize_calls);
    layer["engine.degraded_ops"] = static_cast<double>(counters.degradations);
    layer["core.structures_scanned"] =
        Ratio(counters.scanned, static_cast<uint64_t>(result.attempted));
  }
  time_setups();  // the second half of the setups
  return result;
}

}  // namespace perfbench
