// Seeded inputs for the four workloads.
//
// Every op is a pure function of (seed, op index) and, where a stream
// must never repeat an op, of the ops before it; nothing is
// materialized up front, so a run holds only the op in flight. The
// library never sees the seed, only the generated texts.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/rng.h"

namespace perfbench {

enum class Workload { kServeCold, kServeWarm, kServeLiveView, kPipelineThm31 };

const char* WorkloadName(Workload workload);
std::optional<Workload> WorkloadFromName(const std::string& name);

// An independent random stream for one (seed, stream, index) triple.
hompres::Rng StreamRng(uint64_t seed, uint64_t stream, uint64_t index);

// A directed graph over {0..n-1} in the structure parser's text form.
struct Digraph {
  int n = 0;
  std::vector<std::pair<int, int>> edges;
  std::string Text() const;  // "|A|=n; E={(a b),...}", edges sorted
};

// A wire conjunctive query: canonical structure plus free variables.
struct CqText {
  std::string structure;
  std::vector<int> free;
};

// ---- the serving workloads --------------------------------------------

// The named targets the serving workloads define: random digraphs of
// 48, 64 and 80 vertices, every vertex with out-degree 3 and no loops.
// They are the same for every seed: the seed picks the requests, and
// three graphs are too few to average out between seeds.
inline constexpr int kNumTargets = 3;
struct NamedTarget {
  std::string name;  // "t0", "t1", ...
  std::string text;
};
std::vector<NamedTarget> ServeTargets();

enum class OpKind {
  kHomCount,
  kHomHas,
  kCqEvaluate,
  kCqSatisfied,
  kUcqEvaluate,
  kUcqSatisfied,
};
const char* OpKindName(OpKind kind);  // the wire op name

// One query request against a named target.
struct ServeOp {
  OpKind kind = OpKind::kHomCount;
  int target = 0;                  // index into ServeTargets
  std::string source;              // hom ops
  std::vector<CqText> disjuncts;   // one for cq ops, several for ucq ops
  int arity = 0;                   // cq/ucq ops

  // The request object's text with the given id.
  std::string Payload(int64_t id) const;
};

// serve_cold: hom_count, cq_evaluate and ucq_evaluate in turn, each
// against a random target. No request is ever repeated: a generated op
// whose payload was seen before is drawn again. Hom sources and CQ
// bodies are connected 6-vertex digraphs with 6 edges. Every UCQ has
// two base CQs, one with a renamed copy and one with a subsumed
// specialization (one extra atom), shuffled: four disjuncts the
// optimizer reduces to at most two.
class ColdStream {
 public:
  explicit ColdStream(uint64_t seed) : seed_(seed) {}
  ServeOp Next();

 private:
  uint64_t seed_;
  int64_t index_ = 0;
  std::unordered_set<uint64_t> seen_;
};

// serve_warm: a fixed pool of 96 cacheable requests (hom_has,
// hom_count, cq_satisfied, ucq_satisfied in turn over the targets), and
// the pool entry op `index` replays.
inline constexpr int kWarmPoolSize = 96;
std::vector<ServeOp> WarmPool(uint64_t seed);
size_t WarmPick(uint64_t seed, int64_t index);

// serve_live_view: the base graph is kLiveChains directed paths of
// kLiveChainLength vertices each. Round r inserts an edge from the last
// vertex of one path to the first vertex of another, reads, and deletes
// the same edge; the (from, to) path pairs follow a seeded permutation,
// so no edge repeats within kLiveChains * (kLiveChains - 1) rounds.
inline constexpr int kLiveChains = 64;
inline constexpr int kLiveChainLength = 4;
std::string LiveBaseText();

struct LiveView {
  std::string name;
  std::string program;
  int max_bounded_stage = 2;
};
// Two-step reachability with the boundedness probe off (counting) and
// on (bounded-ucq), and transitive closure (delta-insert on insertion,
// DRed on deletion).
std::vector<LiveView> LiveViews();

struct LiveRound {
  std::pair<int, int> edge;  // absent from the base
  std::string read_source;   // hom_count source against the mutated base
  int view = 0;              // index into LiveViews for the capped read
};
inline constexpr int kLiveViewReadCap = 32;
LiveRound LiveRoundAt(uint64_t seed, int64_t round);

// ---- pipeline_thm31 ----------------------------------------------------

// The four classes the stream cycles through, by index.
inline constexpr int kNumClasses = 4;
const char* ClassName(int class_index);  // "degree<=2", ...
// treewidth<2: the only one of the four classes that lacks a structure
// of at most three elements (the triangle).
inline constexpr int kTreewidthBelow2 = 1;

struct Sentence {
  std::string text;
  int class_index = 0;
  bool negative_control = false;
};

// Distinct existential-positive sentences over at most three variables
// (x, y, z), cycling through the classes; every tenth block of four is
// a negative control: an existential-positive part over x and y
// conjoined with "exists z !E(z,z)", which is not preserved under
// homomorphisms on any of the four classes.
class SentenceStream {
 public:
  explicit SentenceStream(uint64_t seed) : seed_(seed) {}
  Sentence Next();

 private:
  uint64_t seed_;
  int64_t index_ = 0;
  std::unordered_set<uint64_t> seen_;
};

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
