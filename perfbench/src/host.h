// Host facts the benchmark records beside its metrics. They are printed
// with every run so a reader can tell host drift from a regression; no
// metric is gated on them or normalized by them.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <chrono>
#include <cstdint>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Confines the calling process to one CPU of its inherited affinity mask
// (the one it is running on), so every thread it starts later, the
// in-process daemon's included, shares that CPU. Returns the CPU, or -1
// when the mask cannot be read or set.
int PinToCurrentCpu();

// The 1-minute load average, or -1 when unavailable.
double LoadAverage1m();

// Median wall time, in microseconds, of a fixed kernel that walks a
// 2 MiB buffer with a dependent stride: a yardstick for this CPU's speed
// at the moment the run started.
double ReferenceKernelUs();

// The process's resident-set high-water mark in MiB (0 if unknown).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
