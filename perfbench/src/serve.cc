// The three serving workloads: an in-process hompresd with default
// ServerOptions, reached over its unix socket through one connection.

#include <functional>
#include <memory>
#include <unordered_map>

#include "base/budget.h"
#include "cq/cq.h"
#include "cq/ucq.h"
#include "datalog/incremental.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "engine/maintain.h"
#include "engine/plan.h"
#include "hom/hom_cache.h"
#include "host.h"
#include "opt/containment_cache.h"
#include "opt/optimizer.h"
#include "oracle.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stats.h"
#include "structure/delta.h"
#include "structure/parser.h"
#include "workloads.h"

namespace perfbench {

using hompres::Budget;
using hompres::JsonValue;
using hompres::Structure;

void RunResult::Fail(const std::string& reason) {
  ++failed;
  if (failures.size() < 5) failures.push_back(reason);
}

CacheCounters CacheCounters::Now() {
  const hompres::HomCacheStats hom = hompres::HomCache::Global().Stats();
  const hompres::ContainmentCacheStats cc =
      hompres::ContainmentCache::Global().Stats();
  return {hom.hits, hom.hits + hom.misses, hom.evictions, cc.hits,
          cc.Lookups()};
}

void CacheCounters::AddDelta(const CacheCounters& before,
                             const CacheCounters& after) {
  hom_hits += after.hom_hits - before.hom_hits;
  hom_lookups += after.hom_lookups - before.hom_lookups;
  hom_evictions += after.hom_evictions - before.hom_evictions;
  containment_hits += after.containment_hits - before.containment_hits;
  containment_lookups += after.containment_lookups - before.containment_lookups;
}

void CacheCounters::Report(RunResult* result) const {
  result->layer["hom.cache_hit_rate"] = Ratio(hom_hits, hom_lookups);
  result->layer["hom.cache_evictions"] = static_cast<double>(hom_evictions);
  result->layer["opt.ccache_hit_rate"] =
      Ratio(containment_hits, containment_lookups);
}

double Ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

namespace {

// serve_warm keeps this many requests outstanding on its connection.
constexpr int kWarmWindow = 8;
// A traced serve_warm run sends this many ops through the window, then
// replays them, so the replay never competes with in-flight requests.
constexpr int64_t kWarmTraceBlock = 256;

struct Daemon {
  std::unique_ptr<hompres::Server> server;
  hompres::Client client;  // declared last: closes before the server stops
};

std::unique_ptr<Daemon> StartDaemon(const std::string& socket_path,
                                    std::string* error) {
  auto daemon = std::make_unique<Daemon>();
  hompres::ServerOptions options;
  options.socket_path = socket_path;
  daemon->server = std::make_unique<hompres::Server>(options);
  if (!daemon->server->Start(error)) return nullptr;
  if (!daemon->client.Connect(socket_path, error)) return nullptr;
  return daemon;
}

// The client side of the connection. Times each request from its send
// to its full response frame. In a traced run it also records the
// request span, the execution time and steps the response reports, and
// the cache counters moved while requests were in flight (sections
// bracket those stretches, so replays between them are not counted).
class Requester {
 public:
  Requester(Daemon& daemon, Tracer* tracer)
      : daemon_(daemon),
        tracer_(tracer),
        send_ns_(kRing, 0),
        sent_id_(kRing, -1),
        sent_op_(kRing, 0) {}

  // Sends request `id`, which belongs to op `op`.
  bool Send(int64_t id, int64_t op, const std::string& payload) {
    const size_t slot = static_cast<size_t>(id) % kRing;
    sent_id_[slot] = id;
    sent_op_[slot] = op;
    send_ns_[slot] = NowNs();
    return daemon_.client.SendPayload(payload);
  }

  struct Received {
    JsonValue response;
    int64_t op = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  // The next response; nullopt (with *error) when the connection broke
  // or the response is not a JSON object with a known id.
  std::optional<Received> Receive(std::string* error) {
    auto frame = daemon_.client.ReadFrame(error);
    const int64_t end = NowNs();
    if (!frame.has_value()) return std::nullopt;
    auto parsed = hompres::ParseJson(*frame);
    if (!parsed.has_value() || !parsed->IsObject()) {
      *error = "response is not a JSON object";
      return std::nullopt;
    }
    const JsonValue* id = parsed->Find("id");
    const auto value = id ? id->AsInt64() : std::nullopt;
    const size_t slot = value ? static_cast<size_t>(*value) % kRing : 0;
    if (!value || sent_id_[slot] != *value) {
      *error = "response carries an unknown id";
      return std::nullopt;
    }
    Received out{*std::move(parsed), sent_op_[slot], send_ns_[slot], end};
    if (tracer_ != nullptr) Observe(out);
    return out;
  }

  std::optional<Received> Call(int64_t id, int64_t op,
                               const std::string& payload,
                               std::string* error) {
    BeginSection();
    if (!Send(id, op, payload)) {
      *error = "send failed";
      return std::nullopt;
    }
    auto received = Receive(error);
    EndSection();
    return received;
  }

  void BeginSection() {
    if (tracer_ != nullptr) section_start_ = CacheCounters::Now();
  }
  void EndSection() {
    if (tracer_ != nullptr) caches_.AddDelta(section_start_, CacheCounters::Now());
  }

  void Report(RunResult* result) const {
    const hompres::ServerMetricsSnapshot metrics = daemon_.server->Metrics();
    auto& layer = result->layer;
    layer["server.overhead_us"] = Median(overhead_us_);
    layer["server.exec_us"] = Median(exec_us_);
    layer["server.avg_batch"] =
        Ratio(metrics.batched_requests, metrics.batches_executed);
    layer["server.requests_error"] = static_cast<double>(metrics.requests_error);
    layer["server.requests_rejected"] =
        static_cast<double>(metrics.requests_rejected);
    layer["engine.steps_per_op"] =
        Ratio(steps_, static_cast<uint64_t>(exec_us_.size()));
    layer["engine.degraded_ops"] =
        static_cast<double>(metrics.degraded_executions);
    caches_.Report(result);
  }

 private:
  static constexpr size_t kRing = 4096;

  void Observe(const Received& r) {
    tracer_->Record("request", r.op, r.start_ns, r.end_ns);
    const JsonValue* elapsed = r.response.Find("elapsed_us");
    if (elapsed == nullptr) return;
    const double exec = static_cast<double>(elapsed->AsUint64().value_or(0));
    exec_us_.push_back(exec);
    overhead_us_.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e3 - exec);
    const JsonValue* steps = r.response.Find("steps_used");
    if (steps != nullptr) steps_ += steps->AsUint64().value_or(0);
  }

  Daemon& daemon_;
  Tracer* tracer_;
  std::vector<int64_t> send_ns_;
  std::vector<int64_t> sent_id_;
  std::vector<int64_t> sent_op_;
  std::vector<double> overhead_us_;
  std::vector<double> exec_us_;
  uint64_t steps_ = 0;
  CacheCounters section_start_;
  CacheCounters caches_;
};

// Sends a setup request and checks it succeeded.
bool SetupCall(Daemon& daemon, const JsonValue& request,
               JsonValue* response = nullptr) {
  const std::string payload = request.Serialize();
  if (!daemon.client.SendPayload(payload)) return false;
  auto frame = daemon.client.ReadFrame();
  if (!frame.has_value()) return false;
  auto parsed = hompres::ParseJson(*frame);
  if (!parsed.has_value() || !ResponseFailure(*parsed).empty()) return false;
  if (response != nullptr) *response = *std::move(parsed);
  return true;
}

JsonValue DefineRequest(const std::string& name, const std::string& text) {
  JsonValue request = JsonValue::Object();
  request.Set("id", JsonValue::Int(0));
  request.Set("op", JsonValue::String("define"));
  request.Set("name", JsonValue::String(name));
  request.Set("structure", JsonValue::String(text));
  return request;
}

// Starts a daemon and runs `load` against it, kSetupRepetitions times,
// each time from cleared process-wide caches; times each repetition and
// keeps the last daemon.
std::unique_ptr<Daemon> SetupDaemon(const RunOptions& options,
                                    RunResult* result,
                                    const std::function<bool(Daemon&)>& load) {
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    daemon.reset();
    hompres::HomCache::Global().Clear();
    hompres::ContainmentCache::Global().Clear();
    const int64_t start = NowNs();
    std::string error;
    daemon = StartDaemon(options.socket_path, &error);
    if (daemon == nullptr) {
      result->Fail("daemon start: " + error);
      return nullptr;
    }
    if (!load(*daemon)) {
      result->Fail("a setup request failed");
      return nullptr;
    }
    result->setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return daemon;
}

// ---- the replay ---------------------------------------------------------

// The replay's own copy of the daemon's state. It never shares an
// object with the daemon, so replaying cannot race the daemon's
// threads, but process-wide caches are shared, so the replay mirrors
// the cache path each response reports.
struct Mirror {
  std::unordered_map<std::string, std::shared_ptr<const Structure>> named;
  // serve_cold: every UCQ is new, so the daemon missed its memo and its
  // optimizer pass just filled the verdict cache with this union's
  // containments; the replay optimizes with that cache off.
  bool cold = false;
  std::unordered_map<uint64_t, std::shared_ptr<const hompres::UnionOfCq>>
      ucq_memo;
  std::vector<std::unique_ptr<hompres::MaterializedView>> views;

  uint64_t optimize_calls = 0;
  uint64_t disjuncts_in = 0;
  uint64_t disjuncts_out = 0;
  uint64_t containment_tests = 0;
  long long derivations = 0;
  int64_t maintain_rounds = 0;
};

// The daemon's decode of one request: frame, JSON, request envelope.
std::optional<hompres::Request> ReplayDecode(Tracer* t, int64_t op,
                                             const std::string& payload) {
  std::string body;
  {
    ScopedSpan span(t, "server.frame", op);
    const std::string frame = hompres::EncodeFrame(payload);
    hompres::FrameReader reader;
    reader.Feed(frame.data(), frame.size());
    reader.Next(&body);
  }
  std::optional<JsonValue> json;
  {
    ScopedSpan span(t, "server.json", op);
    json = hompres::ParseJson(body);
  }
  if (!json.has_value()) return std::nullopt;
  std::optional<hompres::Request> request;
  {
    ScopedSpan span(t, "server.request_parse", op);
    hompres::ProtocolError error;
    request = hompres::ParseRequest(*json, &error);
  }
  ScopedSpan span(t, "server.json", op);  // freeing the parsed document
  json.reset();
  return request;
}

// The daemon's encode of its response, and the client's frame decode.
void ReplayEncode(Tracer* t, int64_t op, const JsonValue& response) {
  std::string payload;
  {
    ScopedSpan span(t, "server.json", op);
    payload = response.Serialize();
  }
  ScopedSpan span(t, "server.frame", op);
  const std::string frame = hompres::EncodeFrame(payload);
  hompres::FrameReader reader;
  reader.Feed(frame.data(), frame.size());
  std::string body;
  reader.Next(&body);
}

Structure ReplayParse(Tracer* t, int64_t op, const std::string& text) {
  ScopedSpan span(t, "structure.parse", op);
  return ParseGenerated(text);
}

void ReplayHom(Tracer* t, int64_t op, const hompres::Request& request,
               const Structure& target, const JsonValue& response) {
  const Structure source = ReplayParse(t, op, request.source_text);
  {
    ScopedSpan span(t, "structure.fingerprint", op);
    (void)source.Fingerprint();
  }
  hompres::HomProblem problem;
  problem.source = &source;
  problem.target = &target;
  problem.mode = request.op == hompres::RequestOp::kHomHas
                     ? hompres::HomQueryMode::kHas
                     : hompres::HomQueryMode::kCount;
  problem.limit = request.limit;
  // A hit replays against the cache the daemon read; a miss replays
  // with the cache off, since the daemon's miss path has just stored
  // this very answer.
  const JsonValue* cache = response.Find("cache");
  const JsonValue* hit = cache != nullptr ? cache->Find("hit") : nullptr;
  hompres::EngineConfig config = request.config;
  config.use_cache = hit != nullptr && hit->AsBool();
  std::optional<hompres::PlanResult> planned;
  {
    ScopedSpan span(t, "engine.plan", op);
    planned = hompres::PlanHomQuery(problem, config);
  }
  if (!planned->plan.has_value()) return;
  if (!config.use_cache) {
    ScopedSpan span(t, "structure.index_build", op);
    (void)target.Index();
  }
  Budget budget = Budget::Unlimited();
  ScopedSpan span(t, "engine.execute", op);
  (void)hompres::Engine::Execute(*planned->plan, budget);
}

void ReplayUcq(Tracer* t, int64_t op, const hompres::Request& request,
               const Structure& target, Mirror& mirror) {
  std::vector<Structure> canonical;
  for (const hompres::CqSpec& d : request.disjuncts) {
    canonical.push_back(ReplayParse(t, op, d.structure_text));
  }
  std::optional<hompres::UnionOfCq> built;
  {
    ScopedSpan span(t, "cq.build", op);
    std::vector<hompres::ConjunctiveQuery> disjuncts;
    for (size_t i = 0; i < canonical.size(); ++i) {
      disjuncts.emplace_back(std::move(canonical[i]),
                             request.disjuncts[i].free_elements);
    }
    built.emplace(std::move(disjuncts), request.ucq_arity);
  }
  const hompres::UnionOfCq& ucq = *built;
  uint64_t fingerprint = 0;
  {
    ScopedSpan span(t, "opt.fingerprint", op);
    fingerprint = hompres::UcqFingerprint(ucq);
  }
  std::shared_ptr<const hompres::UnionOfCq> optimized;
  auto it = mirror.ucq_memo.find(fingerprint);
  if (it != mirror.ucq_memo.end()) {
    optimized = it->second;
  } else {
    hompres::OptimizerOptions options;
    options.use_cache = !mirror.cold;
    hompres::OptimizerStats stats;
    Budget budget = Budget::MaxSteps(hompres::ServerOptions{}.optimize_max_steps);
    {
      ScopedSpan span(t, "opt.optimize", op);
      optimized = std::make_shared<const hompres::UnionOfCq>(
          hompres::OptimizeUcqBudgeted(ucq, budget, options, &stats));
    }
    ++mirror.optimize_calls;
    mirror.disjuncts_in += static_cast<uint64_t>(stats.input_disjuncts);
    mirror.disjuncts_out += static_cast<uint64_t>(stats.output_disjuncts);
    mirror.containment_tests += stats.containment_tests;
    if (!mirror.cold) mirror.ucq_memo.emplace(fingerprint, optimized);
  }
  if (request.op == hompres::RequestOp::kUcqEvaluate) {
    ScopedSpan span(t, "cq.evaluate", op);
    (void)optimized->Evaluate(target);
  } else {
    ScopedSpan span(t, "cq.satisfied", op);
    (void)optimized->SatisfiedBy(target);
  }
}

// Replays one query request (hom, CQ, or UCQ op against a named target).
void ReplayQuery(Tracer* t, int64_t op, const std::string& payload,
                 const JsonValue& response, Mirror& mirror) {
  const auto request = ReplayDecode(t, op, payload);
  if (!request.has_value()) return;
  std::shared_ptr<const Structure> target;
  {
    ScopedSpan span(t, "server.resolve", op);  // the registry lookup
    target = mirror.named.at(request->target_spec.substr(1));
  }
  {
    ScopedSpan span(t, "structure.fingerprint", op);  // the batch key
    (void)target->Fingerprint();
  }
  switch (request->op) {
    case hompres::RequestOp::kHomHas:
    case hompres::RequestOp::kHomCount:
      ReplayHom(t, op, *request, *target, response);
      break;
    case hompres::RequestOp::kCqEvaluate:
    case hompres::RequestOp::kCqSatisfied: {
      Structure canonical = ReplayParse(t, op, request->query.structure_text);
      std::optional<hompres::ConjunctiveQuery> built;
      {
        ScopedSpan span(t, "cq.build", op);
        built.emplace(std::move(canonical), request->query.free_elements);
      }
      const hompres::ConjunctiveQuery& cq = *built;
      if (request->op == hompres::RequestOp::kCqEvaluate) {
        ScopedSpan span(t, "cq.evaluate", op);
        (void)cq.Evaluate(*target);
      } else {
        ScopedSpan span(t, "cq.satisfied", op);
        (void)cq.SatisfiedBy(*target);
      }
      break;
    }
    default:
      ReplayUcq(t, op, *request, *target, mirror);
  }
  ReplayEncode(t, op, response);
}

const char* MaintainSpanName(hompres::MaintainStrategy strategy) {
  switch (strategy) {
    case hompres::MaintainStrategy::kNoOp:
      return "datalog.maintain.noop";
    case hompres::MaintainStrategy::kBoundedUcq:
      return "datalog.maintain.bounded_ucq";
    case hompres::MaintainStrategy::kCounting:
      return "datalog.maintain.counting";
    case hompres::MaintainStrategy::kDeltaInsert:
      return "datalog.maintain.delta_insert";
    case hompres::MaintainStrategy::kDRed:
      return "datalog.maintain.dred";
    case hompres::MaintainStrategy::kFromScratch:
      return "datalog.maintain.from_scratch";
  }
  return "datalog.maintain.other";
}

// Replays a mutate of the live base: copy-on-write apply, fingerprint,
// and maintenance of every view. False when the replayed base's
// fingerprint differs from the one the daemon reported.
bool ReplayMutate(Tracer* t, int64_t op, const std::string& payload,
                  const JsonValue& response, Mirror& mirror) {
  const auto request = ReplayDecode(t, op, payload);
  if (!request.has_value()) return false;
  const std::shared_ptr<const Structure>& base = mirror.named.at(request->name);
  hompres::StructureDelta delta;
  const int rel = 0;  // E, the only relation of the base
  if (!request->mutate_relation.empty()) {
    delta.InsertTuple(rel, request->mutate_tuple);
  }
  if (!request->mutate_remove_relation.empty()) {
    delta.RemoveTuple(rel, request->mutate_remove_tuple);
  }
  std::shared_ptr<Structure> updated;
  {
    ScopedSpan span(t, "structure.apply", op);
    updated = std::make_shared<Structure>(*base);
    (void)updated->Apply(delta);
  }
  uint64_t fingerprint = 0;
  {
    ScopedSpan span(t, "structure.fingerprint", op);
    fingerprint = updated->Fingerprint();
  }
  mirror.named[request->name] = std::move(updated);
  for (auto& view : mirror.views) {
    const int32_t id = t->Begin("datalog.maintain", op);
    const hompres::ViewMaintenanceStats stats = view->Apply(delta);
    t->End(id);
    t->Rename(id, MaintainSpanName(stats.plan.strategy));
    mirror.derivations += stats.derivations;
  }
  ++mirror.maintain_rounds;
  ReplayEncode(t, op, response);
  const JsonValue* reported = response.Find("fingerprint");
  return reported != nullptr && reported->AsUint64() == fingerprint;
}

void ReportMirror(const Mirror& mirror, RunResult* result) {
  auto& layer = result->layer;
  layer["opt.disjuncts_in"] = Ratio(mirror.disjuncts_in, mirror.optimize_calls);
  layer["opt.disjuncts_out"] = Ratio(mirror.disjuncts_out, mirror.optimize_calls);
  layer["opt.containment_tests"] =
      Ratio(mirror.containment_tests, mirror.optimize_calls);
  layer["datalog.derivations"] =
      mirror.maintain_rounds == 0
          ? 0.0
          : static_cast<double>(mirror.derivations) /
                static_cast<double>(mirror.maintain_rounds);
}

Mirror MirrorOfTargets(const std::vector<NamedTarget>& targets) {
  Mirror mirror;
  for (const NamedTarget& t : targets) {
    mirror.named[t.name] = std::make_shared<const Structure>(ParseGenerated(t.text));
  }
  return mirror;
}

std::vector<Structure> ParsedTargets(const std::vector<NamedTarget>& targets) {
  std::vector<Structure> parsed;
  for (const NamedTarget& t : targets) parsed.push_back(ParseGenerated(t.text));
  return parsed;
}

// Records an op's response: a failure, or its answer digest.
void Check(const JsonValue& response, OpKind kind, int64_t op,
           RunResult* result, std::optional<uint64_t>* digest) {
  const std::string failure = ResponseFailure(response);
  if (!failure.empty()) {
    result->Fail("op " + std::to_string(op) + ": " + failure);
    return;
  }
  *digest = AnswerDigest(response, kind);
  if (!digest->has_value()) {
    result->Fail("op " + std::to_string(op) + ": answer missing");
  }
}

}  // namespace

RunResult RunServeCold(const RunOptions& options, Tracer* tracer) {
  RunResult result;
  const std::vector<NamedTarget> targets = ServeTargets();
  std::vector<JsonValue> defines;
  for (const NamedTarget& t : targets) defines.push_back(DefineRequest(t.name, t.text));
  const auto load = [&](Daemon& d) {
    for (const JsonValue& request : defines) {
      if (!SetupCall(d, request)) return false;
    }
    return true;
  };
  auto daemon = SetupDaemon(options, &result, load);
  if (daemon == nullptr) return result;
  Mirror mirror = tracer ? MirrorOfTargets(targets) : Mirror{};
  mirror.cold = true;

  Requester requester(*daemon, tracer);
  ColdStream stream(options.seed);
  // Answer digests, checked against the oracle after the phase.
  std::vector<std::optional<uint64_t>> digests(static_cast<size_t>(options.ops));
  result.latency_us.reserve(static_cast<size_t>(options.ops));
  int64_t busy_ns = 0;
  for (int64_t i = 0; i < options.ops; ++i) {
    const ServeOp op = stream.Next();
    const std::string payload = op.Payload(i + 1);
    std::string error;
    auto received = requester.Call(i + 1, i, payload, &error);
    ++result.attempted;
    if (!received.has_value()) {
      result.Fail("transport: " + error);
      break;
    }
    const int64_t rtt = received->end_ns - received->start_ns;
    busy_ns += rtt;
    result.Complete(rtt, busy_ns);
    Check(received->response, op.kind, i, &result, &digests[static_cast<size_t>(i)]);
    if (tracer != nullptr) {
      ScopedSpan root(tracer, "replay", i);
      ReplayQuery(tracer, i, payload, received->response, mirror);
    }
  }
  if (tracer != nullptr) {
    requester.Report(&result);
    ReportMirror(mirror, &result);
  }

  const std::vector<Structure> parsed = ParsedTargets(targets);
  ColdStream again(options.seed);
  for (size_t i = 0; i < digests.size(); ++i) {
    const ServeOp op = again.Next();
    if (digests[i].has_value() && *digests[i] != ExpectedDigest(op, parsed)) {
      result.Fail("op " + std::to_string(i) + " (" + OpKindName(op.kind) +
                  "): answer differs from the cache-off oracle");
    }
  }
  daemon.reset();
  SetupDaemon(options, &result, load);  // the second half of the setups
  return result;
}

RunResult RunServeWarm(const RunOptions& options, Tracer* tracer) {
  RunResult result;
  const std::vector<NamedTarget> targets = ServeTargets();
  const std::vector<ServeOp> pool = WarmPool(options.seed);
  // Each pool entry's payload minus its id, so sending costs one splice.
  const std::string kIdPrefix = "{\"id\":0";
  std::vector<std::string> tails;
  for (const ServeOp& op : pool) tails.push_back(op.Payload(0).substr(kIdPrefix.size()));
  auto payload_of = [&](size_t pick, int64_t id) {
    return "{\"id\":" + std::to_string(id) + tails[pick];
  };
  std::vector<JsonValue> defines;
  for (const NamedTarget& t : targets) defines.push_back(DefineRequest(t.name, t.text));
  // Setup ends with one warm-up pass over the pool, so every measured
  // request is answered from the HomCache or the UCQ memo.
  const auto load = [&](Daemon& d) {
    for (const JsonValue& request : defines) {
      if (!SetupCall(d, request)) return false;
    }
    for (size_t p = 0; p < pool.size(); ++p) {
      if (!SetupCall(d, *hompres::ParseJson(payload_of(p, 0)))) return false;
    }
    return true;
  };
  auto daemon = SetupDaemon(options, &result, load);
  if (daemon == nullptr) return result;
  Mirror mirror = tracer ? MirrorOfTargets(targets) : Mirror{};
  if (tracer != nullptr) {
    // Warm the mirror's UCQ memo as the daemon's was warmed.
    Tracer scratch;
    for (size_t p = 0; p < pool.size(); ++p) {
      if (pool[p].kind != OpKind::kUcqSatisfied) continue;
      ReplayQuery(&scratch, -1, payload_of(p, 0), JsonValue::Object(), mirror);
    }
    mirror.optimize_calls = mirror.disjuncts_in = mirror.disjuncts_out =
        mirror.containment_tests = 0;
  }

  Requester requester(*daemon, tracer);
  // Per pool entry, the digest of its first answer; every later answer
  // must repeat it, and it must match the oracle.
  std::vector<std::optional<uint64_t>> first_digest(pool.size());
  result.latency_us.reserve(static_cast<size_t>(options.ops));
  const int64_t block = tracer ? kWarmTraceBlock : options.ops;
  int64_t busy_ns = 0;
  struct Sent {
    std::string payload;
    JsonValue response;
  };
  std::vector<Sent> traced_block;
  bool broken = false;  // the connection failed; the run stops
  for (int64_t begin = 0; begin < options.ops && !broken; begin += block) {
    const int64_t end = std::min(options.ops, begin + block);
    traced_block.assign(static_cast<size_t>(tracer ? end - begin : 0), Sent{});
    requester.BeginSection();
    const int64_t block_start = NowNs();
    int64_t next = begin;
    int64_t inflight = 0;
    while (!broken && (next < end || inflight > 0)) {
      while (next < end && inflight < kWarmWindow) {
        const std::string payload =
            payload_of(WarmPick(options.seed, next), next + 1);
        ++result.attempted;
        if (!requester.Send(next + 1, next, payload)) {
          result.Fail("transport: send failed");
          broken = true;
          break;
        }
        if (tracer != nullptr) {
          traced_block[static_cast<size_t>(next - begin)].payload = payload;
        }
        ++next;
        ++inflight;
      }
      if (broken) break;
      std::string error;
      auto received = requester.Receive(&error);
      if (!received.has_value()) {
        result.Fail("transport: " + error);
        broken = true;
        break;
      }
      --inflight;
      const int64_t op = received->op;
      result.Complete(received->end_ns - received->start_ns,
                      busy_ns + received->end_ns - block_start);
      const size_t pick = WarmPick(options.seed, op);
      std::optional<uint64_t> digest;
      Check(received->response, pool[pick].kind, op, &result, &digest);
      if (digest.has_value()) {
        if (!first_digest[pick].has_value()) first_digest[pick] = digest;
        if (*first_digest[pick] != *digest) {
          result.Fail("op " + std::to_string(op) +
                      ": answer changed between replays");
        }
      }
      if (tracer != nullptr) {
        traced_block[static_cast<size_t>(op - begin)].response =
            std::move(received->response);
      }
    }
    busy_ns += NowNs() - block_start;
    requester.EndSection();
    for (int64_t op = begin; tracer != nullptr && !broken && op < end; ++op) {
      const Sent& sent = traced_block[static_cast<size_t>(op - begin)];
      ScopedSpan root(tracer, "replay", op);
      ReplayQuery(tracer, op, sent.payload, sent.response, mirror);
    }
  }
  if (tracer != nullptr) {
    requester.Report(&result);
    ReportMirror(mirror, &result);
  }

  const std::vector<Structure> parsed = ParsedTargets(targets);
  for (size_t p = 0; p < pool.size(); ++p) {
    if (first_digest[p].has_value() &&
        *first_digest[p] != ExpectedDigest(pool[p], parsed)) {
      result.Fail("pool entry " + std::to_string(p) + " (" +
                  OpKindName(pool[p].kind) +
                  "): answer differs from the cache-off oracle");
    }
  }
  daemon.reset();
  SetupDaemon(options, &result, load);  // the second half of the setups
  return result;
}

namespace {

JsonValue MutateRequest(int64_t id, const char* field, std::pair<int, int> edge) {
  JsonValue tuple = JsonValue::Array();
  tuple.Append(JsonValue::Int(edge.first));
  tuple.Append(JsonValue::Int(edge.second));
  JsonValue op = JsonValue::Object();
  op.Set("relation", JsonValue::String("E"));
  op.Set("tuple", std::move(tuple));
  JsonValue request = JsonValue::Object();
  request.Set("id", JsonValue::Int(id));
  request.Set("op", JsonValue::String("mutate"));
  request.Set("name", JsonValue::String("g"));
  request.Set(field, std::move(op));
  return request;
}

JsonValue ViewTuplesRequest(int64_t id, const std::string& view,
                            uint64_t max_results) {
  JsonValue request = JsonValue::Object();
  request.Set("id", JsonValue::Int(id));
  request.Set("op", JsonValue::String("view_tuples"));
  request.Set("name", JsonValue::String(view));
  request.Set("max_results", JsonValue::Uint(max_results));
  return request;
}

JsonValue ViewDefineRequest(const LiveView& view) {
  JsonValue request = JsonValue::Object();
  request.Set("id", JsonValue::Int(0));
  request.Set("op", JsonValue::String("view_define"));
  request.Set("name", JsonValue::String(view.name));
  request.Set("on", JsonValue::String("g"));
  request.Set("program", JsonValue::String(view.program));
  request.Set("max_bounded_stage", JsonValue::Int(view.max_bounded_stage));
  return request;
}

}  // namespace

RunResult RunServeLiveView(const RunOptions& options, Tracer* tracer) {
  RunResult result;
  const std::string base_text = LiveBaseText();
  const std::vector<LiveView> views = LiveViews();
  const JsonValue define = DefineRequest("g", base_text);
  uint64_t base_fingerprint = 0;
  const auto load = [&](Daemon& d) {
    JsonValue response;
    if (!SetupCall(d, define, &response)) return false;
    base_fingerprint = response.Find("fingerprint")->AsUint64().value_or(0);
    for (const LiveView& view : views) {
      if (!SetupCall(d, ViewDefineRequest(view))) return false;
    }
    return true;
  };
  auto daemon = SetupDaemon(options, &result, load);
  if (daemon == nullptr) return result;
  const Structure base = ParseGenerated(base_text);
  Mirror mirror;
  if (tracer != nullptr) {
    mirror.named["g"] = std::make_shared<const Structure>(base);
    const int64_t start = NowNs();
    for (const LiveView& view : views) {
      hompres::MaterializedViewOptions view_options;
      view_options.max_bounded_stage = view.max_bounded_stage;
      mirror.views.push_back(std::make_unique<hompres::MaterializedView>(
          *hompres::ParseDatalogProgram(view.program, base.GetVocabulary()),
          base, view_options));
    }
    result.layer["datalog.fixpoint_s"] = static_cast<double>(NowNs() - start) / 1e9;
  }

  Requester requester(*daemon, tracer);
  std::vector<std::optional<uint64_t>> read_digests(static_cast<size_t>(options.ops));
  result.latency_us.reserve(static_cast<size_t>(options.ops));
  int64_t busy_ns = 0;
  int64_t id = 0;
  for (int64_t r = 0; r < options.ops; ++r) {
    const LiveRound round = LiveRoundAt(options.seed, r);
    const std::string read_payload = [&] {
      JsonValue request = JsonValue::Object();
      request.Set("id", JsonValue::Int(id + 2));
      request.Set("op", JsonValue::String("hom_count"));
      request.Set("target", JsonValue::String("@g"));
      request.Set("source", JsonValue::String(round.read_source));
      return request.Serialize();
    }();
    const std::string payloads[4] = {
        MutateRequest(id + 1, "add_tuple", round.edge).Serialize(),
        read_payload,
        ViewTuplesRequest(id + 3, views[static_cast<size_t>(round.view)].name,
                          kLiveViewReadCap)
            .Serialize(),
        MutateRequest(id + 4, "remove_tuple", round.edge).Serialize(),
    };
    JsonValue responses[4];
    int64_t round_ns = 0;
    bool transport_ok = true;
    bool failed = false;
    for (int step = 0; step < 4; ++step) {
      std::string error;
      auto received = requester.Call(++id, r, payloads[step], &error);
      if (!received.has_value()) {
        result.Fail("transport: " + error);
        transport_ok = false;
        break;
      }
      round_ns += received->end_ns - received->start_ns;
      const std::string failure = ResponseFailure(received->response);
      if (!failure.empty() && !failed) {
        result.Fail("round " + std::to_string(r) + ": " + failure);
        failed = true;
      }
      responses[step] = std::move(received->response);
    }
    ++result.attempted;
    if (!transport_ok) break;
    busy_ns += round_ns;
    result.Complete(round_ns, busy_ns);
    if (!failed) {
      const JsonValue* added = responses[0].Find("fingerprint");
      const JsonValue* restored = responses[3].Find("fingerprint");
      read_digests[static_cast<size_t>(r)] =
          AnswerDigest(responses[1], OpKind::kHomCount);
      if (added == nullptr || added->AsUint64() == base_fingerprint) {
        result.Fail("round " + std::to_string(r) + ": insert left the base unchanged");
      } else if (restored == nullptr || restored->AsUint64() != base_fingerprint) {
        result.Fail("round " + std::to_string(r) + ": base fingerprint not restored");
      }
    }
    if (tracer != nullptr) {
      ScopedSpan root(tracer, "replay", r);
      bool mirrored = ReplayMutate(tracer, r, payloads[0], responses[0], mirror);
      ReplayQuery(tracer, r, payloads[1], responses[1], mirror);
      (void)ReplayDecode(tracer, r, payloads[2]);  // view_tuples
      ReplayEncode(tracer, r, responses[2]);
      mirrored = ReplayMutate(tracer, r, payloads[3], responses[3], mirror) && mirrored;
      if (!mirrored) result.Fail("round " + std::to_string(r) + ": replay diverged");
    }
  }
  if (tracer != nullptr) {
    requester.Report(&result);
    ReportMirror(mirror, &result);
  }

  // Oracle: every read against a cache-off count on base + edge, then
  // every view, listed in full, against a from-scratch evaluation.
  for (size_t r = 0; r < read_digests.size(); ++r) {
    if (!read_digests[r].has_value()) continue;
    const LiveRound round = LiveRoundAt(options.seed, static_cast<int64_t>(r));
    Structure mutated = base;
    mutated.AddTuple(0, {round.edge.first, round.edge.second});
    if (*read_digests[r] != ExpectedHomCountDigest(round.read_source, mutated)) {
      result.Fail("round " + std::to_string(r) + ": read differs from the cache-off oracle");
    }
  }
  for (const LiveView& view : views) {
    std::string error;
    ++id;
    auto received = requester.Call(
        id, -1, ViewTuplesRequest(id, view.name, 1u << 16).Serialize(), &error);
    const std::string failure =
        received ? CheckViewAgainstScratch(received->response, view.program, base)
                 : "transport: " + error;
    if (!failure.empty()) result.Fail("view " + view.name + ": " + failure);
  }
  daemon.reset();
  SetupDaemon(options, &result, load);  // the second half of the setups
  return result;
}

}  // namespace perfbench
