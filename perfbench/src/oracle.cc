#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "base/budget.h"
#include "base/hash.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "fo/ep.h"
#include "structure/parser.h"

namespace perfbench {

using hompres::JsonValue;
using hompres::Structure;
using hompres::Tuple;

namespace {

uint64_t DigestTuples(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  uint64_t h = hompres::Mix64(0x7475706cULL ^ tuples.size());
  for (const Tuple& t : tuples) {
    h = hompres::Mix64(h ^ t.size());
    for (int e : t) h = hompres::Mix64(h ^ static_cast<uint64_t>(e));
  }
  return h;
}

uint64_t DigestScalar(uint64_t value) {
  return hompres::Mix64(0x5ca1a7ULL ^ value);
}

std::optional<std::vector<Tuple>> TuplesOf(const JsonValue* list) {
  if (list == nullptr || !list->IsArray()) return std::nullopt;
  std::vector<Tuple> tuples;
  tuples.reserve(list->Items().size());
  for (const JsonValue& t : list->Items()) {
    if (!t.IsArray()) return std::nullopt;
    Tuple tuple;
    for (const JsonValue& e : t.Items()) {
      const auto v = e.AsInt64();
      if (!v.has_value()) return std::nullopt;
      tuple.push_back(static_cast<int>(*v));
    }
    tuples.push_back(std::move(tuple));
  }
  return tuples;
}

// Runs one has/count/enumerate query on the engine with the cache off.
hompres::HomResult RunEngine(const Structure& source, const Structure& target,
                             hompres::HomQueryMode mode,
                             std::function<bool(const std::vector<int>&)>
                                 callback = nullptr) {
  hompres::HomProblem problem;
  problem.source = &source;
  problem.target = &target;
  problem.mode = mode;
  problem.callback = std::move(callback);
  hompres::EngineConfig config;
  config.use_cache = false;
  hompres::PlanResult planned = hompres::PlanHomQuery(problem, config);
  if (!planned.plan.has_value()) {
    std::fprintf(stderr, "oracle: planning failed: %s\n",
                 planned.error->message.c_str());
    std::abort();
  }
  hompres::Budget unlimited = hompres::Budget::Unlimited();
  return hompres::Engine::Execute(*planned.plan, unlimited).Value();
}

hompres::ConjunctiveQuery CqOf(const CqText& q) {
  return hompres::ConjunctiveQuery(ParseGenerated(q.structure), q.free);
}

}  // namespace

std::string ResponseFailure(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  if (ok == nullptr || !ok->IsBool() || !ok->AsBool()) {
    const JsonValue* error = response.Find("error");
    const JsonValue* code = error ? error->Find("code") : nullptr;
    return std::string("error response: ") +
           (code && code->IsString() ? code->AsString() : "?");
  }
  const JsonValue* outcome = response.Find("outcome");
  if (outcome != nullptr &&
      (!outcome->IsString() || outcome->AsString() != "done")) {
    return "outcome is not done";
  }
  if (response.Find("degradations") != nullptr) return "degraded execution";
  // A query's answer list must be complete; a view read is capped on
  // purpose.
  const JsonValue* truncated = response.Find("truncated");
  if (response.Find("answers") != nullptr && truncated != nullptr &&
      truncated->IsBool() && truncated->AsBool()) {
    return "truncated answer";
  }
  if (const JsonValue* maintenance = response.Find("maintenance")) {
    const JsonValue* applied = maintenance->Find("applied");
    const JsonValue* degraded =
        applied ? applied->Find("index_degraded") : nullptr;
    if (degraded != nullptr && degraded->IsBool() && degraded->AsBool()) {
      return "degraded index maintenance";
    }
    if (const JsonValue* views = maintenance->Find("views")) {
      for (const JsonValue& view : views->Items()) {
        if (view.Find("degradations") != nullptr) {
          return "degraded view maintenance";
        }
      }
    }
  }
  return "";
}

std::optional<uint64_t> AnswerDigest(const JsonValue& response, OpKind kind) {
  const char* field = nullptr;
  switch (kind) {
    case OpKind::kHomCount:
      field = "count";
      break;
    case OpKind::kHomHas:
      field = "has";
      break;
    case OpKind::kCqSatisfied:
    case OpKind::kUcqSatisfied:
      field = "satisfied";
      break;
    case OpKind::kCqEvaluate:
    case OpKind::kUcqEvaluate: {
      auto tuples = TuplesOf(response.Find("answers"));
      if (!tuples.has_value()) return std::nullopt;
      return DigestTuples(*std::move(tuples));
    }
  }
  const JsonValue* value = response.Find(field);
  if (value == nullptr) return std::nullopt;
  if (value->IsBool()) return DigestScalar(value->AsBool() ? 1 : 0);
  const auto number = value->AsUint64();
  if (!number.has_value()) return std::nullopt;
  return DigestScalar(*number);
}

Structure ParseGenerated(const std::string& text) {
  std::string error;
  auto parsed = hompres::ParseStructure(text, hompres::GraphVocabulary(), &error);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "generated structure does not parse: %s\n",
                 error.c_str());
    std::abort();
  }
  return *std::move(parsed);
}

uint64_t ExpectedHomCountDigest(const std::string& source,
                                const Structure& target) {
  return DigestScalar(
      RunEngine(ParseGenerated(source), target, hompres::HomQueryMode::kCount)
          .count);
}

uint64_t ExpectedDigest(const ServeOp& op,
                        const std::vector<Structure>& targets) {
  const Structure& target = targets[static_cast<size_t>(op.target)];
  switch (op.kind) {
    case OpKind::kHomCount:
      return ExpectedHomCountDigest(op.source, target);
    case OpKind::kHomHas:
      return DigestScalar(RunEngine(ParseGenerated(op.source), target,
                                    hompres::HomQueryMode::kHas)
                              .has);
    case OpKind::kCqSatisfied:
    case OpKind::kUcqSatisfied: {
      bool satisfied = false;
      for (const CqText& d : op.disjuncts) {
        satisfied = satisfied || RunEngine(ParseGenerated(d.structure), target,
                                           hompres::HomQueryMode::kHas)
                                     .has;
      }
      return DigestScalar(satisfied ? 1 : 0);
    }
    case OpKind::kCqEvaluate: {
      const CqText& q = op.disjuncts[0];
      std::vector<Tuple> answers;
      RunEngine(ParseGenerated(q.structure), target,
                hompres::HomQueryMode::kEnumerate,
                [&](const std::vector<int>& h) {
                  Tuple t;
                  for (int f : q.free) t.push_back(h[static_cast<size_t>(f)]);
                  answers.push_back(std::move(t));
                  return true;
                });
      return DigestTuples(std::move(answers));
    }
    case OpKind::kUcqEvaluate: {
      std::vector<hompres::ConjunctiveQuery> disjuncts;
      for (const CqText& d : op.disjuncts) disjuncts.push_back(CqOf(d));
      const hompres::UnionOfCq ucq(std::move(disjuncts), op.arity);
      return DigestTuples(ucq.Evaluate(target));
    }
  }
  return 0;
}

std::string CheckViewAgainstScratch(const JsonValue& response,
                                    const std::string& program_text,
                                    const Structure& base) {
  const auto program =
      hompres::ParseDatalogProgram(program_text, base.GetVocabulary());
  if (!program.has_value()) return "view program does not parse";
  const hompres::DatalogResult scratch =
      hompres::EvaluateSemiNaive(*program, base);
  const JsonValue* idb = response.Find("idb");
  if (idb == nullptr || !idb->IsArray() ||
      idb->Items().size() != scratch.idb.size()) {
    return "view lists the wrong relations";
  }
  for (size_t rel = 0; rel < scratch.idb.size(); ++rel) {
    auto tuples = TuplesOf(idb->Items()[rel].Find("tuples"));
    if (!tuples.has_value()) return "view tuples missing";
    const std::set<Tuple> served(tuples->begin(), tuples->end());
    if (served != scratch.idb[rel]) {
      return "view relation " + std::to_string(rel) +
             " differs from a from-scratch evaluation";
    }
  }
  return "";
}

std::string CheckPipelineResult(const Sentence& sentence,
                                const hompres::FormulaPtr& formula,
                                const hompres::PreservationResult& result) {
  if (sentence.negative_control) {
    return result.verified ? "negative control verified" : "";
  }
  if (!result.verified) return "existential-positive sentence did not verify";
  const auto own =
      hompres::ExistentialPositiveSentenceToUcq(formula,
                                                hompres::GraphVocabulary());
  if (!own.has_value()) return "sentence is not existential positive";
  // Treewidth<2 excludes the triangle, so there the minimal models may
  // be proper images of the sentence's disjuncts: the UCQ implies the
  // sentence but need not be implied by it off the class.
  const bool equivalence_expected = sentence.class_index != kTreewidthBelow2;
  const bool agrees = equivalence_expected
                          ? hompres::UcqEquivalent(result.equivalent_ucq, *own)
                          : hompres::UcqContained(result.equivalent_ucq, *own);
  return agrees ? "" : "pipeline UCQ disagrees with the sentence's own UCQ";
}

}  // namespace perfbench
