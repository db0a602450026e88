#include "host.h"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace perfbench {

namespace {
// Keeps the reference walk observable so it is not optimized away.
volatile uint64_t g_reference_sink = 0;
}  // namespace

int PinToCurrentCpu() {
  cpu_set_t inherited;
  CPU_ZERO(&inherited);
  if (sched_getaffinity(0, sizeof(inherited), &inherited) != 0) return -1;
  int cpu = sched_getcpu();
  if (cpu < 0 || !CPU_ISSET(cpu, &inherited)) {
    cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &inherited)) {
        cpu = c;
        break;
      }
    }
    if (cpu < 0) return -1;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
  return cpu;
}

double LoadAverage1m() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

double ReferenceKernelUs() {
  constexpr size_t kWords = (2u << 20) / sizeof(uint64_t);
  constexpr size_t kStride = 4099;  // odd, so the walk visits every word
  std::vector<uint64_t> buffer(kWords);
  for (size_t i = 0; i < kWords; ++i) buffer[i] = i * 0x9E3779B97F4A7C15ULL;
  std::vector<double> samples;
  uint64_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const int64_t start = NowNs();
    size_t at = static_cast<size_t>(sink % kWords);
    for (size_t i = 0; i < kWords; ++i) {
      buffer[at] += sink;
      sink ^= buffer[at] >> 7;
      at = (at + kStride) % kWords;
    }
    samples.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  g_reference_sink = sink;
  return Median(samples);
}

double PeakRssMb() {
  // VmHWM belongs to this program's address space. getrusage's
  // ru_maxrss would not do: Linux carries it across exec, so a child
  // of a large parent reports the parent's pre-exec peak.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

}  // namespace perfbench
