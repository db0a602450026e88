// Tests of the benchmark itself: its seeded inputs, its oracle, its
// live rounds, and its statistics.

#include <gtest/gtest.h>
#include <unistd.h>

#include <set>
#include <string>
#include <vector>

#include "cq/cq.h"
#include "fo/ep.h"
#include "fo/formula.h"
#include "fo/parser.h"
#include "gen.h"
#include "opt/canonical.h"
#include "oracle.h"
#include "server/client.h"
#include "server/json.h"
#include "server/server.h"
#include "stats.h"
#include "structure/structure.h"
#include "trace.h"

namespace perfbench {
namespace {

using hompres::JsonValue;

std::vector<std::string> ColdPayloads(uint64_t seed, int n) {
  ColdStream stream(seed);
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(stream.Next().Payload(i + 1));
  return out;
}

std::vector<std::string> WarmStream(uint64_t seed, int n) {
  std::vector<std::string> out;
  const std::vector<ServeOp> pool = WarmPool(seed);
  for (int i = 0; i < n; ++i) out.push_back(pool[WarmPick(seed, i)].Payload(i + 1));
  return out;
}

std::vector<std::string> LiveStream(uint64_t seed, int n) {
  std::vector<std::string> out;
  for (int r = 0; r < n; ++r) {
    const LiveRound round = LiveRoundAt(seed, r);
    out.push_back(std::to_string(round.edge.first) + "->" +
                  std::to_string(round.edge.second) + " " + round.read_source +
                  " " + std::to_string(round.view));
  }
  return out;
}

std::vector<std::string> Sentences(uint64_t seed, int n) {
  SentenceStream stream(seed);
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(stream.Next().text);
  return out;
}

TEST(OpStream, SameSeedSameBytesOtherSeedOtherBytes) {
  EXPECT_EQ(ColdPayloads(7, 300), ColdPayloads(7, 300));
  EXPECT_NE(ColdPayloads(7, 300), ColdPayloads(8, 300));
  EXPECT_EQ(WarmStream(7, 300), WarmStream(7, 300));
  EXPECT_NE(WarmStream(7, 300), WarmStream(8, 300));
  EXPECT_EQ(LiveStream(7, 300), LiveStream(7, 300));
  EXPECT_NE(LiveStream(7, 300), LiveStream(8, 300));
  EXPECT_EQ(Sentences(7, 300), Sentences(7, 300));
  EXPECT_NE(Sentences(7, 300), Sentences(8, 300));
}

TEST(OpStream, ServeTargetsHaveTheStatedSizes) {
  const std::vector<NamedTarget> targets = ServeTargets();
  ASSERT_EQ(targets.size(), static_cast<size_t>(kNumTargets));
  for (int t = 0; t < kNumTargets; ++t) {
    const hompres::Structure s = ParseGenerated(targets[static_cast<size_t>(t)].text);
    EXPECT_EQ(s.UniverseSize(), 48 + 16 * t);
    EXPECT_EQ(s.NumTuples(), 3 * s.UniverseSize());
    for (const hompres::Tuple& e : s.Tuples(0)) EXPECT_NE(e[0], e[1]);
  }
}

TEST(OpStream, ColdMixIsEvenAndNeverRepeats) {
  ColdStream stream(3);
  std::set<std::string> seen;
  int counts[3] = {0, 0, 0};
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const ServeOp op = stream.Next();
    EXPECT_TRUE(seen.insert(op.Payload(0)).second) << "op " << i << " repeats";
    switch (op.kind) {
      case OpKind::kHomCount: {
        ++counts[0];
        const hompres::Structure source = ParseGenerated(op.source);
        EXPECT_EQ(source.UniverseSize(), 6);
        EXPECT_EQ(source.NumTuples(), 6);
        break;
      }
      case OpKind::kCqEvaluate:
        ++counts[1];
        ASSERT_EQ(op.disjuncts.size(), 1u);
        EXPECT_TRUE(op.arity == 1 || op.arity == 2);
        break;
      case OpKind::kUcqEvaluate: {
        ++counts[2];
        ASSERT_EQ(op.disjuncts.size(), 4u);
        EXPECT_EQ(op.arity, 1);
        // Exactly the two kinds of redundancy: a renamed copy (equal
        // canonical fingerprints) and a subsumed specialization.
        std::vector<hompres::ConjunctiveQuery> qs;
        for (const CqText& d : op.disjuncts) {
          qs.emplace_back(ParseGenerated(d.structure), d.free);
        }
        int renamed_pairs = 0;
        int subsumed_pairs = 0;
        for (size_t a = 0; a < qs.size(); ++a) {
          for (size_t b = 0; b < qs.size(); ++b) {
            if (a == b) continue;
            if (a < b && hompres::CqFingerprint(qs[a]) == hompres::CqFingerprint(qs[b])) {
              ++renamed_pairs;
            }
            if (qs[a].Canonical().NumTuples() > qs[b].Canonical().NumTuples() &&
                hompres::CqContained(qs[a], qs[b])) {
              ++subsumed_pairs;
            }
          }
        }
        EXPECT_GE(renamed_pairs, 1) << op.Payload(0);
        EXPECT_GE(subsumed_pairs, 1) << op.Payload(0);
        break;
      }
      default:
        ADD_FAILURE() << "unexpected op kind " << OpKindName(op.kind);
    }
  }
  EXPECT_EQ(counts[0], n / 3);
  EXPECT_EQ(counts[1], n / 3);
  EXPECT_EQ(counts[2], n / 3);
}

TEST(OpStream, WarmPoolIsDistinctAndCacheable) {
  const std::vector<ServeOp> pool = WarmPool(5);
  ASSERT_EQ(pool.size(), static_cast<size_t>(kWarmPoolSize));
  std::set<std::string> seen;
  int per_kind[4] = {0, 0, 0, 0};
  for (const ServeOp& op : pool) {
    EXPECT_TRUE(seen.insert(op.Payload(0)).second);
    switch (op.kind) {
      case OpKind::kHomHas:
        ++per_kind[0];
        break;
      case OpKind::kHomCount:
        ++per_kind[1];
        break;
      case OpKind::kCqSatisfied:
        ++per_kind[2];
        break;
      case OpKind::kUcqSatisfied:
        ++per_kind[3];
        break;
      default:
        ADD_FAILURE() << "uncacheable op " << OpKindName(op.kind);
    }
  }
  for (int k : per_kind) EXPECT_EQ(k, kWarmPoolSize / 4);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(WarmPick(5, i), pool.size());
}

TEST(OpStream, LiveEdgesAreAbsentAndDoNotRepeat) {
  const hompres::Structure base = ParseGenerated(LiveBaseText());
  EXPECT_EQ(base.UniverseSize(), kLiveChains * kLiveChainLength);
  std::set<std::pair<int, int>> seen;
  const int rounds = kLiveChains * (kLiveChains - 1);
  for (int r = 0; r < rounds; ++r) {
    const LiveRound round = LiveRoundAt(9, r);
    EXPECT_FALSE(base.HasTuple(0, {round.edge.first, round.edge.second}));
    EXPECT_EQ(round.edge.first % kLiveChainLength, kLiveChainLength - 1);
    EXPECT_EQ(round.edge.second % kLiveChainLength, 0);
    EXPECT_NE(round.edge.first / kLiveChainLength,
              round.edge.second / kLiveChainLength);
    EXPECT_TRUE(seen.insert(round.edge).second) << "round " << r;
    EXPECT_EQ(round.view, r % 3);
  }
}

TEST(OpStream, SentencesMatchTheStatedMix) {
  SentenceStream stream(11);
  std::set<std::string> seen;
  const int n = 800;
  int negatives = 0;
  int negatives_per_class[kNumClasses] = {};
  for (int i = 0; i < n; ++i) {
    const Sentence s = stream.Next();
    EXPECT_TRUE(seen.insert(s.text).second);
    EXPECT_EQ(s.class_index, i % kNumClasses);
    const auto formula = hompres::ParseFormula(s.text);
    ASSERT_TRUE(formula.has_value()) << s.text;
    EXPECT_TRUE(hompres::IsSentence(*formula));
    EXPECT_LE(hompres::AllVariables(*formula).size(), 3u) << s.text;
    EXPECT_EQ(hompres::IsExistentialPositive(*formula), !s.negative_control)
        << s.text;
    if (s.negative_control) {
      ++negatives;
      ++negatives_per_class[s.class_index];
    }
  }
  EXPECT_EQ(negatives, n / 10);
  for (int c : negatives_per_class) EXPECT_EQ(c, n / 10 / kNumClasses);
}

JsonValue CountResponse(uint64_t count) {
  JsonValue r = JsonValue::Object();
  r.Set("ok", JsonValue::Bool(true));
  r.Set("outcome", JsonValue::String("done"));
  r.Set("count", JsonValue::Uint(count));
  return r;
}

TEST(Oracle, RejectsAnInjectedWrongAnswer) {
  std::vector<hompres::Structure> targets;
  for (const NamedTarget& t : ServeTargets()) targets.push_back(ParseGenerated(t.text));
  ColdStream stream(4);
  const ServeOp hom = stream.Next();
  ASSERT_EQ(hom.kind, OpKind::kHomCount);
  const uint64_t expected = ExpectedDigest(hom, targets);
  // Recover the true count by probing, then answer it and a wrong one.
  uint64_t truth = 0;
  while (AnswerDigest(CountResponse(truth), hom.kind) != expected) ++truth;
  EXPECT_EQ(AnswerDigest(CountResponse(truth), hom.kind), expected);
  EXPECT_NE(AnswerDigest(CountResponse(truth + 1), hom.kind), expected);

  const ServeOp cq = stream.Next();
  ASSERT_EQ(cq.kind, OpKind::kCqEvaluate);
  const hompres::ConjunctiveQuery query(ParseGenerated(cq.disjuncts[0].structure),
                                        cq.disjuncts[0].free);
  std::vector<hompres::Tuple> answers =
      query.Evaluate(targets[static_cast<size_t>(cq.target)]);
  ASSERT_FALSE(answers.empty());
  auto response_with = [](const std::vector<hompres::Tuple>& tuples) {
    JsonValue r = JsonValue::Object();
    r.Set("ok", JsonValue::Bool(true));
    JsonValue list = JsonValue::Array();
    for (const hompres::Tuple& t : tuples) {
      JsonValue tuple = JsonValue::Array();
      for (int e : t) tuple.Append(JsonValue::Int(e));
      list.Append(std::move(tuple));
    }
    r.Set("answers", std::move(list));
    return r;
  };
  EXPECT_EQ(AnswerDigest(response_with(answers), cq.kind), ExpectedDigest(cq, targets));
  answers.pop_back();
  EXPECT_NE(AnswerDigest(response_with(answers), cq.kind), ExpectedDigest(cq, targets));
}

TEST(Oracle, FlagsFailedResponses) {
  JsonValue ok = CountResponse(3);
  EXPECT_EQ(ResponseFailure(ok), "");
  JsonValue error = JsonValue::Object();
  error.Set("ok", JsonValue::Bool(false));
  EXPECT_NE(ResponseFailure(error), "");
  JsonValue exhausted = CountResponse(3);
  exhausted.Set("outcome", JsonValue::String("exhausted"));
  EXPECT_NE(ResponseFailure(exhausted), "");
  JsonValue degraded = CountResponse(3);
  degraded.Set("degradations", JsonValue::Array());
  EXPECT_NE(ResponseFailure(degraded), "");
}

TEST(Oracle, RejectsWrongPipelineResults) {
  Sentence ep;
  ep.text = "exists x exists y (E(x,y) & E(y,x))";
  ep.class_index = 3;
  const auto formula = *hompres::ParseFormula(ep.text);
  hompres::PreservationResult result = hompres::PreservationPipeline(
      formula, hompres::GraphVocabulary(), hompres::AllStructuresClass(), 3, 3);
  EXPECT_EQ(CheckPipelineResult(ep, formula, result), "");
  hompres::PreservationResult unverified = result;
  unverified.verified = false;
  EXPECT_NE(CheckPipelineResult(ep, formula, unverified), "");
  hompres::PreservationResult other = result;
  other.equivalent_ucq = *hompres::ExistentialPositiveSentenceToUcq(
      *hompres::ParseFormula("exists x E(x,x)"), hompres::GraphVocabulary());
  EXPECT_NE(CheckPipelineResult(ep, formula, other), "");
  Sentence negative = ep;
  negative.negative_control = true;
  EXPECT_NE(CheckPipelineResult(negative, formula, result), "");
}

JsonValue Call(hompres::Client& client, JsonValue request) {
  auto response = client.Roundtrip(request);
  EXPECT_TRUE(response.has_value());
  return response.value_or(JsonValue::Object());
}

TEST(LiveRound, LeavesTheBaseFingerprintUnchanged) {
  hompres::ServerOptions options;
  options.socket_path = "perfbench-test-" + std::to_string(getpid()) + ".sock";
  hompres::Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  hompres::Client client;
  ASSERT_TRUE(client.Connect(options.socket_path, &error)) << error;

  JsonValue define = JsonValue::Object();
  define.Set("id", JsonValue::Int(1));
  define.Set("op", JsonValue::String("define"));
  define.Set("name", JsonValue::String("g"));
  define.Set("structure", JsonValue::String(LiveBaseText()));
  const JsonValue defined = Call(client, define);
  ASSERT_EQ(ResponseFailure(defined), "");
  const auto base = defined.Find("fingerprint")->AsUint64();
  for (const LiveView& view : LiveViews()) {
    JsonValue request = JsonValue::Object();
    request.Set("id", JsonValue::Int(2));
    request.Set("op", JsonValue::String("view_define"));
    request.Set("name", JsonValue::String(view.name));
    request.Set("on", JsonValue::String("g"));
    request.Set("program", JsonValue::String(view.program));
    request.Set("max_bounded_stage", JsonValue::Int(view.max_bounded_stage));
    ASSERT_EQ(ResponseFailure(Call(client, request)), "");
  }

  const LiveRound round = LiveRoundAt(1, 0);
  auto mutate = [&](const char* field) {
    JsonValue tuple = JsonValue::Array();
    tuple.Append(JsonValue::Int(round.edge.first));
    tuple.Append(JsonValue::Int(round.edge.second));
    JsonValue op = JsonValue::Object();
    op.Set("relation", JsonValue::String("E"));
    op.Set("tuple", std::move(tuple));
    JsonValue request = JsonValue::Object();
    request.Set("id", JsonValue::Int(3));
    request.Set("op", JsonValue::String("mutate"));
    request.Set("name", JsonValue::String("g"));
    request.Set(field, std::move(op));
    return Call(client, request);
  };
  const JsonValue added = mutate("add_tuple");
  ASSERT_EQ(ResponseFailure(added), "");
  EXPECT_NE(added.Find("fingerprint")->AsUint64(), base);
  const JsonValue removed = mutate("remove_tuple");
  ASSERT_EQ(ResponseFailure(removed), "");
  EXPECT_EQ(removed.Find("fingerprint")->AsUint64(), base);
  client.Close();
  server.Stop();
}

TEST(Stats, PercentileNeedsTenSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 1; i <= 999; ++i) samples.push_back(i);
  EXPECT_FALSE(Percentile(samples, 0.99).has_value());
  samples.push_back(1000);
  ASSERT_TRUE(Percentile(samples, 0.99).has_value());
  EXPECT_EQ(*Percentile(samples, 0.99), 990.0);  // 991..1000 lie beyond
  EXPECT_EQ(*Percentile(samples, 0.5), 500.0);
  EXPECT_FALSE(Percentile({1, 2, 3}, 0.5).has_value());
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(Trace, SelfTimeSubtractsChildren) {
  std::vector<Span> spans(3);
  spans[0] = {"replay", 0, -1, 0, 100, 1};
  spans[1] = {"engine.execute", 0, 0, 10, 70, 1};
  spans[2] = {"fo.eval", 0, 1, 20, 50, 1};
  const TraceSummary summary = Summarize(spans);
  EXPECT_EQ(summary.replayed_ops, 1);
  EXPECT_DOUBLE_EQ(summary.self_us_per_op.at("engine"), 0.030);  // 60 - 30 ns
  EXPECT_DOUBLE_EQ(summary.self_us_per_op.at("fo"), 0.030);
  EXPECT_DOUBLE_EQ(summary.coverage, 0.6);
  EXPECT_DOUBLE_EQ(summary.p50_us_per_op.at("engine.execute"), 0.060);
}

}  // namespace
}  // namespace perfbench
