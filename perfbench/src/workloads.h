// The four workload runners. Each runs a fixed, seeded number of ops
// as a closed loop, checks every answer, and returns what it measured.
// With a tracer, each op is followed by an in-process replay of the
// same op through the public functions the daemon (or the pipeline)
// calls, under spans; the untraced run records nothing but latencies.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen.h"
#include "trace.h"

namespace perfbench {

// Setup runs this many times before the measured phase and as many
// times after it, and setup_s is the median of all of them, so neither
// one slow repetition nor a slow moment of the host moves it.
inline constexpr int kSetupRepetitions = 12;

struct RunOptions {
  Workload workload = Workload::kServeCold;
  uint64_t seed = 1;
  int64_t ops = 1000;
  std::string socket_path;  // the in-process daemon's unix socket
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  // The first few failure reasons, for the log.
  std::vector<std::string> failures;
  // One latency per completed op, in microseconds.
  std::vector<double> latency_us;
  // Time on the measured clock, which runs only while ops are in
  // flight: input generation, answer checks and replays between ops are
  // off it.
  int64_t measured_ns = 0;
  // Wall time of each setup repetition.
  std::vector<double> setup_s;
  // Per-layer numbers the runner measured itself (counts, rates, and
  // timings taken on the client side), keyed by metric name.
  std::map<std::string, double> layer;

  void Fail(const std::string& reason);
  // Records an op that completed at `at_clock_ns` on the measured clock.
  void Complete(int64_t latency_ns, int64_t at_clock_ns) {
    latency_us.push_back(static_cast<double>(latency_ns) / 1e3);
    measured_ns = at_clock_ns;
  }
};

// Process-wide cache counters, for deltas over the stretches of a run
// where the measured program (not the replay) runs.
struct CacheCounters {
  uint64_t hom_hits = 0;
  uint64_t hom_lookups = 0;
  uint64_t hom_evictions = 0;
  uint64_t containment_hits = 0;
  uint64_t containment_lookups = 0;

  static CacheCounters Now();
  void AddDelta(const CacheCounters& before, const CacheCounters& after);
  // hom.cache_hit_rate, hom.cache_evictions, opt.ccache_hit_rate.
  void Report(RunResult* result) const;
};

// part / whole, or 0 when whole is 0.
double Ratio(uint64_t part, uint64_t whole);

// serve_* send every op to an in-process hompresd; pipeline_thm31 runs
// it through the Theorem 3.1 pipeline.
RunResult RunServeCold(const RunOptions& options, Tracer* tracer);
RunResult RunServeWarm(const RunOptions& options, Tracer* tracer);
RunResult RunServeLiveView(const RunOptions& options, Tracer* tracer);
RunResult RunPipelineThm31(const RunOptions& options, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
