// In-memory spans for the traced run.
//
// Spans are recorded by the benchmark around its calls into the
// library's public functions; nothing inside src/ is instrumented. A
// span name is "<layer>.<call>" (the layer is the src/ module), or one
// of the two root kinds: "request" (a client round trip to the daemon)
// and "replay" (the in-process replay of one op). Spans stay in memory
// until WriteJsonl at the end of the run.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static storage
  int64_t op = 0;
  int32_t parent = -1;  // index of the enclosing span; -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Calls folded into this span: an aggregate of a call repeated inside
  // its parent (one EvaluateSentence per scanned structure) records one
  // span whose duration is the sum, starting at the parent's start.
  int64_t calls = 1;
};

class Tracer {
 public:
  // Opens a span under the innermost open span; returns its index.
  int32_t Begin(const char* name, int64_t op);
  void End(int32_t id);

  // Renames span `id`, for a call whose kind is known only after it ran.
  void Rename(int32_t id, const char* name) {
    spans_[static_cast<size_t>(id)].name = name;
  }

  // Records an already-closed root span.
  void Record(const char* name, int64_t op, int64_t start_ns, int64_t end_ns);

  // Records the aggregate of `calls` calls totalling `total_ns` under
  // the innermost open span.
  void Aggregate(const char* name, int64_t op, int64_t total_ns,
                 int64_t calls);

  const std::vector<Span>& Spans() const { return spans_; }

  // One JSON object per line; false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Opens a span for the enclosing scope; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t op)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// What the spans say, per span name and per layer.
struct TraceSummary {
  // Per span name: the median over ops of the op's total time in
  // that span name, in microseconds (ops without such a span excluded).
  std::map<std::string, double> p50_us_per_op;
  // Per layer: self time summed over every span of the layer (duration
  // minus the time its child spans cover), divided by the number of
  // replayed ops, in microseconds.
  std::map<std::string, double> self_us_per_op;
  // Layer self time over replay time: the share of each replayed op
  // that named layer spans account for.
  double coverage = 0.0;
  int64_t replayed_ops = 0;
};

TraceSummary Summarize(const std::vector<Span>& spans);

// The layer of a span name: the text before the first '.'.
std::string LayerOf(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
