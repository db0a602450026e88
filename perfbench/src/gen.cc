#include "gen.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <set>

#include "base/hash.h"
#include "server/json.h"

namespace perfbench {

using hompres::JsonValue;
using hompres::Rng;

namespace {

// Stream tags, so the workloads' random streams never coincide.
enum Stream : uint64_t {
  kTargetsStream = 1,
  kColdStream = 2,
  kWarmPoolStream = 3,
  kWarmPickStream = 4,
  kLiveStream = 5,
  kSentenceStream = 6,
};

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// A never-repeating stream redraws an op it has already produced. One
// that finds nothing new in this many draws has used up its space for
// the run length asked for, and ends the run rather than loop forever.
constexpr int kMaxDraws = 10000;

[[noreturn]] void Exhausted(const char* stream) {
  std::fprintf(stderr,
               "perfbench: the %s stream found no new op in %d draws; "
               "run fewer ops\n",
               stream, kMaxDraws);
  std::exit(1);
}

// A connected digraph on k vertices: a random spanning tree with random
// edge directions plus `extra` further edges between unlinked pairs. No
// loops, no antiparallel pairs.
Digraph RandomConnected(Rng& rng, int k, int extra) {
  Digraph g;
  g.n = k;
  std::set<std::pair<int, int>> linked;
  auto add = [&](int a, int b) {
    linked.insert({std::min(a, b), std::max(a, b)});
    if (rng.Bernoulli(0.5)) std::swap(a, b);
    g.edges.push_back({a, b});
  };
  for (int v = 1; v < k; ++v) {
    add(static_cast<int>(rng.Uniform(static_cast<uint64_t>(v))), v);
  }
  const int max_extra = k * (k - 1) / 2 - (k - 1);
  for (int e = 0; e < std::min(extra, max_extra);) {
    const int a = rng.UniformInt(0, k - 1);
    const int b = rng.UniformInt(0, k - 1);
    if (a == b || linked.count({std::min(a, b), std::max(a, b)}) > 0) continue;
    add(a, b);
    ++e;
  }
  return g;
}

Digraph Renamed(Rng& rng, const Digraph& g, std::vector<int>* free) {
  std::vector<int> perm(static_cast<size_t>(g.n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = g.n - 1; i > 0; --i) {
    std::swap(perm[static_cast<size_t>(i)],
              perm[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  Digraph out;
  out.n = g.n;
  for (const auto& [a, b] : g.edges) {
    out.edges.push_back({perm[static_cast<size_t>(a)], perm[static_cast<size_t>(b)]});
  }
  for (int& f : *free) f = perm[static_cast<size_t>(f)];
  return out;
}

// g plus one edge it lacks in either direction: a specialization of g
// (every answer of it is an answer of g), so redundant beside g.
Digraph WithExtraEdge(Rng& rng, Digraph g) {
  for (;;) {
    const int a = rng.UniformInt(0, g.n - 1);
    const int b = rng.UniformInt(0, g.n - 1);
    if (std::find(g.edges.begin(), g.edges.end(), std::make_pair(a, b)) ==
        g.edges.end()) {
      g.edges.push_back({a, b});
      return g;
    }
  }
}

JsonValue CqJson(const CqText& q) {
  JsonValue out = JsonValue::Object();
  out.Set("structure", JsonValue::String(q.structure));
  JsonValue free = JsonValue::Array();
  for (int f : q.free) free.Append(JsonValue::Int(f));
  out.Set("free", std::move(free));
  return out;
}

bool IsHom(OpKind kind) {
  return kind == OpKind::kHomCount || kind == OpKind::kHomHas;
}

// A hom source or CQ body: a connected digraph on kQueryVertices
// vertices and as many edges, relabelled at random. There are 234 240
// such digraphs, so with three targets a never-repeated stream of tens
// of thousands of requests seldom redraws and its mix does not drift
// over a run. Over four or five vertices there are only 7 344: a run
// of thousands of requests used up most of them, redrew ever more
// often and drifted toward the ones left.
constexpr int kQueryVertices = 6;

Digraph RandomQueryGraph(Rng& rng, std::vector<int>* free) {
  return Renamed(rng, RandomConnected(rng, kQueryVertices, 1), free);
}

ServeOp RandomOp(Rng& rng, OpKind kind) {
  ServeOp op;
  op.kind = kind;
  op.target = rng.UniformInt(0, kNumTargets - 1);
  if (IsHom(kind)) {
    std::vector<int> no_free;
    op.source = RandomQueryGraph(rng, &no_free).Text();
    return op;
  }
  if (kind == OpKind::kCqEvaluate || kind == OpKind::kCqSatisfied) {
    op.arity = kind == OpKind::kCqSatisfied ? 0 : rng.UniformInt(1, 2);
    CqText q;
    for (int f = 0; f < op.arity; ++f) q.free.push_back(f);
    q.structure = RandomQueryGraph(rng, &q.free).Text();
    op.disjuncts.push_back(std::move(q));
    return op;
  }
  op.arity = kind == OpKind::kUcqSatisfied ? 0 : 1;
  std::vector<int> free;
  if (op.arity == 1) free.push_back(0);
  const Digraph first = RandomConnected(rng, rng.UniformInt(4, 5), 1);
  std::vector<int> renamed_free = free;
  const Digraph renamed = Renamed(rng, first, &renamed_free);
  const Digraph second = RandomConnected(rng, rng.UniformInt(4, 5), 1);
  op.disjuncts.push_back({first.Text(), free});
  op.disjuncts.push_back({renamed.Text(), renamed_free});
  op.disjuncts.push_back({second.Text(), free});
  op.disjuncts.push_back({WithExtraEdge(rng, second).Text(), free});
  for (size_t i = op.disjuncts.size() - 1; i > 0; --i) {
    std::swap(op.disjuncts[i], op.disjuncts[rng.Uniform(i + 1)]);
  }
  return op;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kServeCold:
      return "serve_cold";
    case Workload::kServeWarm:
      return "serve_warm";
    case Workload::kServeLiveView:
      return "serve_live_view";
    case Workload::kPipelineThm31:
      return "pipeline_thm31";
  }
  return "";
}

std::optional<Workload> WorkloadFromName(const std::string& name) {
  for (Workload w : {Workload::kServeCold, Workload::kServeWarm,
                     Workload::kServeLiveView, Workload::kPipelineThm31}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

Rng StreamRng(uint64_t seed, uint64_t stream, uint64_t index) {
  return Rng(hompres::Mix64(hompres::Mix64(seed ^ (stream << 56)) ^ index));
}

std::string Digraph::Text() const {
  // Sorted, so equal structures have equal texts and a stream that
  // never repeats a text never repeats a structure either.
  std::vector<std::pair<int, int>> sorted = edges;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "|A|=" + std::to_string(n) + "; E={";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ',';
    out += '(' + std::to_string(sorted[i].first) + ' ' +
           std::to_string(sorted[i].second) + ')';
  }
  return out + '}';
}

std::vector<NamedTarget> ServeTargets() {
  constexpr uint64_t kTargetsSeed = 0x7a29e75;
  std::vector<NamedTarget> targets;
  for (int t = 0; t < kNumTargets; ++t) {
    Rng rng = StreamRng(kTargetsSeed, kTargetsStream, static_cast<uint64_t>(t));
    Digraph g;
    g.n = 48 + 16 * t;
    for (int v = 0; v < g.n; ++v) {
      std::set<int> heads;
      while (heads.size() < 3) {
        const int w = rng.UniformInt(0, g.n - 1);
        if (w != v) heads.insert(w);
      }
      for (int w : heads) g.edges.push_back({v, w});
    }
    std::string name = "t";
    name += std::to_string(t);
    targets.push_back({std::move(name), g.Text()});
  }
  return targets;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kHomCount:
      return "hom_count";
    case OpKind::kHomHas:
      return "hom_has";
    case OpKind::kCqEvaluate:
      return "cq_evaluate";
    case OpKind::kCqSatisfied:
      return "cq_satisfied";
    case OpKind::kUcqEvaluate:
      return "ucq_evaluate";
    case OpKind::kUcqSatisfied:
      return "ucq_satisfied";
  }
  return "";
}

std::string ServeOp::Payload(int64_t id) const {
  JsonValue request = JsonValue::Object();
  request.Set("id", JsonValue::Int(id));
  request.Set("op", JsonValue::String(OpKindName(kind)));
  request.Set("target", JsonValue::String("@t" + std::to_string(target)));
  switch (kind) {
    case OpKind::kHomCount:
    case OpKind::kHomHas:
      request.Set("source", JsonValue::String(source));
      break;
    case OpKind::kCqEvaluate:
    case OpKind::kCqSatisfied:
      request.Set("query", CqJson(disjuncts[0]));
      break;
    case OpKind::kUcqEvaluate:
    case OpKind::kUcqSatisfied: {
      JsonValue list = JsonValue::Array();
      for (const CqText& d : disjuncts) list.Append(CqJson(d));
      request.Set("disjuncts", std::move(list));
      request.Set("arity", JsonValue::Int(arity));
      break;
    }
  }
  if (kind == OpKind::kCqEvaluate || kind == OpKind::kUcqEvaluate) {
    // Above any answer count these targets allow, so nothing truncates.
    request.Set("max_results", JsonValue::Uint(65536));
  }
  return request.Serialize();
}

ServeOp ColdStream::Next() {
  static constexpr OpKind kMix[] = {OpKind::kHomCount, OpKind::kCqEvaluate,
                                    OpKind::kUcqEvaluate};
  const int64_t index = index_++;
  Rng rng = StreamRng(seed_, kColdStream, static_cast<uint64_t>(index));
  for (int draw = 0; draw < kMaxDraws; ++draw) {
    ServeOp op = RandomOp(rng, kMix[index % 3]);
    if (seen_.insert(Fnv1a(op.Payload(0))).second) return op;
  }
  Exhausted("serve_cold");
}

std::vector<ServeOp> WarmPool(uint64_t seed) {
  static constexpr OpKind kMix[] = {OpKind::kHomHas, OpKind::kHomCount,
                                    OpKind::kCqSatisfied,
                                    OpKind::kUcqSatisfied};
  std::vector<ServeOp> pool;
  std::unordered_set<uint64_t> seen;
  for (int i = 0; i < kWarmPoolSize; ++i) {
    Rng rng = StreamRng(seed, kWarmPoolStream, static_cast<uint64_t>(i));
    for (int draw = 0;; ++draw) {
      if (draw == kMaxDraws) Exhausted("serve_warm pool");
      ServeOp op = RandomOp(rng, kMix[i % 4]);
      if (seen.insert(Fnv1a(op.Payload(0))).second) {
        pool.push_back(std::move(op));
        break;
      }
    }
  }
  return pool;
}

size_t WarmPick(uint64_t seed, int64_t index) {
  return StreamRng(seed, kWarmPickStream, static_cast<uint64_t>(index))
      .Uniform(kWarmPoolSize);
}

std::string LiveBaseText() {
  Digraph g;
  g.n = kLiveChains * kLiveChainLength;
  for (int c = 0; c < kLiveChains; ++c) {
    for (int j = 0; j + 1 < kLiveChainLength; ++j) {
      const int v = c * kLiveChainLength + j;
      g.edges.push_back({v, v + 1});
    }
  }
  return g.Text();
}

std::vector<LiveView> LiveViews() {
  const std::string two_step = "R(x,y) <- E(x,y). R(x,y) <- E(x,z), E(z,y).";
  return {
      {"two_step_counting", two_step, 0},
      {"two_step_bounded", two_step, 2},
      {"reach", "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).", 2},
  };
}

LiveRound LiveRoundAt(uint64_t seed, int64_t round) {
  constexpr uint64_t kPairs = kLiveChains * (kLiveChains - 1);
  Rng stream = StreamRng(seed, kLiveStream, 0);
  uint64_t multiplier = 0;
  do {
    multiplier = 1 + stream.Uniform(kPairs - 1);
  } while (std::gcd(multiplier, kPairs) != 1);
  const uint64_t offset = stream.Uniform(kPairs);
  const uint64_t pair =
      (multiplier * static_cast<uint64_t>(round) + offset) % kPairs;
  const int from = static_cast<int>(pair / (kLiveChains - 1));
  int to = static_cast<int>(pair % (kLiveChains - 1));
  if (to >= from) ++to;

  Rng rng = StreamRng(seed, kLiveStream, 1 + static_cast<uint64_t>(round));
  LiveRound out;
  out.edge = {from * kLiveChainLength + kLiveChainLength - 1,
              to * kLiveChainLength};
  out.read_source = RandomConnected(rng, rng.UniformInt(3, 4), 0).Text();
  out.view = static_cast<int>(round % 3);
  return out;
}

const char* ClassName(int class_index) {
  static constexpr const char* kNames[kNumClasses] = {
      "degree<=2", "treewidth<2", "no-K4-minor", "all"};
  return kNames[class_index];
}

namespace {

std::string RandomAtom(Rng& rng, const std::vector<std::string>& vars) {
  const std::string& u = vars[rng.Uniform(vars.size())];
  const std::string& v = vars[rng.Uniform(vars.size())];
  if (u != v && rng.Bernoulli(0.1)) return u + " = " + v;
  return "E(" + u + "," + v + ")";
}

// A random and/or tree over `atoms` atoms.
std::string RandomBody(Rng& rng, const std::vector<std::string>& vars,
                       int atoms) {
  if (atoms == 1) return RandomAtom(rng, vars);
  const int left = rng.UniformInt(1, atoms - 1);
  const char* op = rng.Bernoulli(0.65) ? " & " : " | ";
  std::string out = "(";
  out += RandomBody(rng, vars, left);
  out += op;
  out += RandomBody(rng, vars, atoms - left);
  out += ')';
  return out;
}

// "exists v ..." over the variables the body mentions.
std::string Quantified(const std::vector<std::string>& vars,
                       const std::string& body) {
  std::string out;
  for (const std::string& v : vars) {
    if (body.find(v) != std::string::npos) out += "exists " + v + " ";
  }
  return out + body;
}

}  // namespace

Sentence SentenceStream::Next() {
  const int64_t index = index_++;
  Rng rng = StreamRng(seed_, kSentenceStream, static_cast<uint64_t>(index));
  Sentence out;
  out.class_index = static_cast<int>(index % kNumClasses);
  out.negative_control = (index / kNumClasses) % 10 == 9;
  for (int draw = 0; draw < kMaxDraws; ++draw) {
    if (out.negative_control) {
      const std::vector<std::string> vars = {"x", "y"};
      std::string text = "(";
      text += Quantified(vars, RandomBody(rng, vars, rng.UniformInt(1, 3)));
      text += ") & exists z !E(z,z)";
      out.text = std::move(text);
    } else {
      std::vector<std::string> vars = {"x", "y", "z"};
      vars.resize(static_cast<size_t>(rng.UniformInt(2, 3)));
      out.text = Quantified(vars, RandomBody(rng, vars, rng.UniformInt(2, 5)));
    }
    if (seen_.insert(Fnv1a(out.text)).second) return out;
  }
  Exhausted("pipeline_thm31");
}

}  // namespace perfbench
