// Order statistics for benchmark samples.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

// A percentile is reported only when at least this many samples lie
// beyond it, so a p99 needs >= 1000 samples.
inline constexpr size_t kMinSamplesBeyond = 10;

// Nearest-rank q-quantile (0 < q < 1) of `samples`, or nullopt when
// fewer than kMinSamplesBeyond samples lie strictly above its rank.
std::optional<double> Percentile(std::vector<double> samples, double q);

// Median (mean of the middle pair for even sizes); 0 for no samples.
double Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
