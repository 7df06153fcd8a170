#include "rcwbench/src/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace rcwbench {

void PrintResult(const RunResult& result) {
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::string values;
  for (const auto& [name, v] : result.values) {
    // All 17 significant digits; never NaN/inf, which JSON cannot carry.
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", std::isfinite(v) ? v : 0.0);
    if (!values.empty()) values += ", ";
    values.append("\"").append(name).append("\": ").append(number);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"values\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), values.c_str());
  std::fflush(stdout);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(i, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace rcwbench
