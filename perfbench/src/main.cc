// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--max-ops <n>] [--work-dir <dir>]
//
// Workloads: serve_cold, serve_warm, serve_live_view, pipeline_thm31.
// A run is a fixed, seeded number of ops (OpsPerSecond(workload) times
// --seconds, at least kMinOps), so a seed always replays the same stream.
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a traced run. Exit status 1 means an op failed or an
// answer disagreed with the oracle, 2 a usage error.

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "gen.h"
#include "host.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Enough ops for ten samples beyond the p99.
constexpr int64_t kMinOps = 1000;

// Ops per second of --seconds, per workload: about the median rate on a
// shared 4-vCPU x86 virtual machine, where the measured phase takes 0.8
// to 1.3 times --seconds as the host's load comes and goes.
int64_t OpsPerSecond(Workload workload) {
  switch (workload) {
    case Workload::kServeCold:
      return 1100;
    case Workload::kServeWarm:
      return 40000;
    case Workload::kServeLiveView:
      return 350;
    case Workload::kPipelineThm31:
      return 160;
  }
  return 1000;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// The per-layer metrics, in report order. A "<span>_us" metric is the
// median over ops of the op's total time in spans of that name; a
// "<layer>.self_us" metric is the layer's self time per replayed op.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* span;  // source span, or nullptr for a counted metric
};
const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"server.overhead_us", "us", nullptr},
      {"server.frame_us", "us", "server.frame"},
      {"server.json_us", "us", "server.json"},
      {"server.request_parse_us", "us", "server.request_parse"},
      {"server.avg_batch", "count", nullptr},
      {"server.exec_us", "us", nullptr},
      {"server.requests_error", "count", nullptr},
      {"server.requests_rejected", "count", nullptr},
      {"server.self_us", "us", nullptr},
      {"structure.parse_us", "us", "structure.parse"},
      {"structure.fingerprint_us", "us", "structure.fingerprint"},
      {"structure.apply_us", "us", "structure.apply"},
      {"structure.index_build_us", "us", "structure.index_build"},
      {"structure.self_us", "us", nullptr},
      {"engine.plan_us", "us", "engine.plan"},
      {"engine.execute_us", "us", "engine.execute"},
      {"engine.steps_per_op", "count", nullptr},
      {"engine.degraded_ops", "count", nullptr},
      {"engine.self_us", "us", nullptr},
      {"hom.cache_hit_rate", "ratio", nullptr},
      {"hom.cache_evictions", "count", nullptr},
      {"opt.optimize_us", "us", "opt.optimize"},
      {"opt.disjuncts_in", "count", nullptr},
      {"opt.disjuncts_out", "count", nullptr},
      {"opt.containment_tests", "count", nullptr},
      {"opt.ccache_hit_rate", "ratio", nullptr},
      {"opt.self_us", "us", nullptr},
      {"cq.evaluate_us", "us", "cq.evaluate"},
      {"cq.satisfied_us", "us", "cq.satisfied"},
      {"cq.self_us", "us", nullptr},
      {"datalog.maintain_us.counting", "us", "datalog.maintain.counting"},
      {"datalog.maintain_us.delta_insert", "us", "datalog.maintain.delta_insert"},
      {"datalog.maintain_us.bounded_ucq", "us", "datalog.maintain.bounded_ucq"},
      {"datalog.maintain_us.dred", "us", "datalog.maintain.dred"},
      {"datalog.derivations", "count", nullptr},
      {"datalog.fixpoint_s", "s", nullptr},
      {"datalog.self_us", "us", nullptr},
      {"core.minimal_models_us", "us", "core.minimal_models"},
      {"core.verify_us", "us", "core.verify"},
      {"core.structures_scanned", "count", nullptr},
      {"core.self_us", "us", nullptr},
      {"fo.parse_us", "us", "fo.parse"},
      {"fo.eval_us", "us", "fo.eval"},
      {"fo.self_us", "us", nullptr},
      {"trace.coverage", "ratio", nullptr},
  };
  return kMetrics;
}

std::vector<Metric> EndToEndMetrics(const RunResult& r, bool* ok) {
  const auto p99 = Percentile(r.latency_us, 0.99);
  if (!p99.has_value()) {
    std::fprintf(stderr, "too few ops (%zu) for a p99 with %zu beyond it\n",
                 r.latency_us.size(), kMinSamplesBeyond);
    *ok = false;
  }
  const double measured_s = static_cast<double>(r.measured_ns) / 1e9;
  return {
      {"throughput_ops_s",
       measured_s > 0 ? static_cast<double>(r.latency_us.size()) / measured_s
                      : 0.0,
       "1/s"},
      {"latency_p50_us", Median(r.latency_us), "us"},
      {"latency_p99_us", p99.value_or(0.0), "us"},
      {"setup_s", Median(r.setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"success_rate",
       r.attempted > 0
           ? 1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted)
           : 0.0,
       "ratio"},
  };
}

std::vector<Metric> PerLayerMetrics(const RunResult& r, const TraceSummary& summary) {
  std::vector<Metric> out;
  for (const LayerMetric& m : LayerMetrics()) {
    const std::string name = m.name;
    double value = 0.0;
    if (m.span != nullptr) {
      auto it = summary.p50_us_per_op.find(m.span);
      if (it != summary.p50_us_per_op.end()) value = it->second;
    } else if (name.size() > 8 && name.compare(name.size() - 8, 8, ".self_us") == 0) {
      auto it = summary.self_us_per_op.find(LayerOf(name));
      if (it != summary.self_us_per_op.end()) value = it->second;
    } else if (name == "trace.coverage") {
      value = summary.coverage;
    } else {
      auto it = r.layer.find(name);
      if (it != r.layer.end()) value = it->second;
    }
    out.push_back({name, value, m.unit});
  }
  return out;
}

RunResult RunWorkload(const RunOptions& options, Tracer* tracer) {
  switch (options.workload) {
    case Workload::kServeCold:
      return RunServeCold(options, tracer);
    case Workload::kServeWarm:
      return RunServeWarm(options, tracer);
    case Workload::kServeLiveView:
      return RunServeLiveView(options, tracer);
    case Workload::kPipelineThm31:
      return RunPipelineThm31(options, tracer);
  }
  return {};
}

std::string JsonNumber(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

void PrintResult(const RunResult& r, bool correct, const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <serve_cold|serve_warm|"
               "serve_live_view|pipeline_thm31> --seed <n> --seconds <s> "
               "--trace <0|1> [--max-ops <n>] [--work-dir <dir>]\n",
               message);
  return 2;
}

bool ParseInt(const std::string& text, int64_t min, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0 || v < min) return false;
  *out = v;
  return true;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  int64_t seed = -1;
  int64_t seconds = -1;
  int64_t trace = -1;
  int64_t max_ops = 0;
  // Where the daemon's socket and the trace file go.
  std::string work_dir = ".bench_build";
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      ok = ParseInt(value, 0, &seed);
    } else if (flag == "--seconds") {
      ok = ParseInt(value, 1, &seconds) && seconds <= 600;
    } else if (flag == "--trace") {
      ok = ParseInt(value, 0, &trace) && trace <= 1;
    } else if (flag == "--max-ops") {
      ok = ParseInt(value, 1, &max_ops);
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (!ok) return Usage(("bad value for " + flag).c_str());
  }
  const auto workload = WorkloadFromName(workload_name);
  if (!workload.has_value()) return Usage("unknown or missing --workload");
  if (seed < 0 || seconds < 0 || trace < 0) {
    return Usage("--seed, --seconds and --trace are required");
  }

  // Pin before anything starts a thread, so the daemon's threads share
  // the CPU too.
  const int cpu = PinToCurrentCpu();
  const double load = LoadAverage1m();
  const double reference_us = ReferenceKernelUs();
  std::printf("host.cpu %d\nhost.loadavg_1m %.2f\nhost.ref_kernel_us %.1f\n", cpu,
              load, reference_us);

  RunOptions options;
  options.workload = *workload;
  options.seed = static_cast<uint64_t>(seed);
  options.ops = std::max(kMinOps, OpsPerSecond(*workload) * seconds);
  if (max_ops > 0) options.ops = std::min(options.ops, std::max(kMinOps, max_ops));
  options.socket_path =
      work_dir + "/perfbench-" + std::to_string(getpid()) + ".sock";

  Tracer tracer;
  const RunResult result = RunWorkload(options, trace ? &tracer : nullptr);
  std::printf("workload %s seed %lld ops %lld attempted %lld failed %lld\n",
              WorkloadName(*workload), static_cast<long long>(seed),
              static_cast<long long>(options.ops),
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (const std::string& failure : result.failures) {
    std::printf("failure: %s\n", failure.c_str());
  }
  bool correct = result.failed == 0 && result.attempted > 0;
  const std::vector<Metric> end_to_end = EndToEndMetrics(result, &correct);
  for (const Metric& m : end_to_end) {
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::vector<Metric> metrics = end_to_end;
  if (trace) {
    const TraceSummary summary = Summarize(tracer.Spans());
    metrics = PerLayerMetrics(result, summary);
    for (const Metric& m : metrics) {
      std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    const std::string path = work_dir + "/trace-" + WorkloadName(*workload) + "-" +
                             std::to_string(seed) + ".jsonl";
    if (tracer.WriteJsonl(path)) {
      std::printf("spans %zu written to %s\n", tracer.Spans().size(), path.c_str());
    }
    // The traced run's own throughput, for the tracing-overhead ratio.
    metrics.push_back(end_to_end[0]);
  }
  PrintResult(result, correct, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
