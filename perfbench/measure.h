#ifndef CPGAN_PERFBENCH_MEASURE_H_
#define CPGAN_PERFBENCH_MEASURE_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Process CPU time (user + system), minor page faults and peak RSS, read
/// with getrusage.
struct Usage {
  double cpu_s = 0.0;
  int64_t minor_faults = 0;
  double max_rss_mb = 0.0;
};

inline Usage ReadUsage() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  Usage u;
  u.cpu_s = static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec);
  u.minor_faults = r.ru_minflt;
  u.max_rss_mb = static_cast<double>(r.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

/// One metric as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench

#endif  // CPGAN_PERFBENCH_MEASURE_H_
