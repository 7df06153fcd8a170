// The line every run ends with, and the statistics the workloads report.
#ifndef RCWBENCH_REPORT_H_
#define RCWBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rcwbench {

/// What one workload run produced. `values` holds the metrics the run
/// measured, by the names BENCHMARK.json gives them; run.py adds the units
/// and picks the list the run's mode reports.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> values;
  /// Human-readable lines printed before the result line (sample counts,
  /// fail rate, generator lateness).
  std::vector<std::string> notes;
};

/// Prints the notes as "# " lines, then one JSON line
/// {"correct": .., "attempted": .., "failed": .., "values": {name: value}}.
void PrintResult(const RunResult& result);

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// Median of `samples`; 0 when empty.
double Median(std::vector<double> samples);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace rcwbench

#endif  // RCWBENCH_REPORT_H_
