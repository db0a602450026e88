#include "trace.h"

#include <cstdio>
#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "host.h"
#include "stats.h"

namespace perfbench {

int32_t Tracer::Begin(const char* name, int64_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  spans_.back().start_ns = NowNs();
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Record(const char* name, int64_t op, int64_t start_ns,
                    int64_t end_ns) {
  Span span;
  span.name = name;
  span.op = op;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

void Tracer::Aggregate(const char* name, int64_t op, int64_t total_ns,
                       int64_t calls) {
  if (calls == 0) return;
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns =
      span.parent < 0 ? NowNs() : spans_[static_cast<size_t>(span.parent)].start_ns;
  span.end_ns = span.start_ns + total_ns;
  span.calls = calls;
  spans_.push_back(span);
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"parent\":%d,\"op\":%lld,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"calls\":%lld}\n",
                 i, s.parent, static_cast<long long>(s.op), s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<long long>(s.calls));
  }
  return std::fclose(out) == 0;
}

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

TraceSummary Summarize(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  // The replay root each span belongs to (-1 outside any replay).
  std::vector<int32_t> root(spans.size(), -1);
  TraceSummary summary;
  int64_t replay_ns = 0;
  int64_t attributed_ns = 0;
  std::map<std::string, int64_t> layer_self_ns;
  std::map<std::string, std::unordered_map<int64_t, int64_t>> per_op_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t duration = s.end_ns - s.start_ns;
    if (s.parent < 0) {
      if (std::strcmp(s.name, "replay") == 0) {
        root[i] = static_cast<int32_t>(i);
        replay_ns += duration;
        ++summary.replayed_ops;
      }
    } else {
      root[i] = root[static_cast<size_t>(s.parent)];
    }
    per_op_ns[s.name][s.op] += duration;
    if (root[i] < 0 || root[i] == static_cast<int32_t>(i)) continue;
    const int64_t self = duration - child_ns[i];
    layer_self_ns[LayerOf(s.name)] += self;
    attributed_ns += self;
  }
  for (auto& [name, by_op] : per_op_ns) {
    std::vector<double> totals;
    totals.reserve(by_op.size());
    for (const auto& [op, ns] : by_op) totals.push_back(static_cast<double>(ns) / 1e3);
    summary.p50_us_per_op[name] = Median(std::move(totals));
  }
  const double ops = static_cast<double>(std::max<int64_t>(summary.replayed_ops, 1));
  for (const auto& [layer, ns] : layer_self_ns) {
    summary.self_us_per_op[layer] = static_cast<double>(ns) / 1e3 / ops;
  }
  summary.coverage = replay_ns == 0 ? 0.0
                                    : static_cast<double>(attributed_ns) /
                                          static_cast<double>(replay_ns);
  return summary;
}

}  // namespace perfbench
