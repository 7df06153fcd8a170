// The three workloads. Each drives the library only through public calls,
// keeps every option at its default except the WitnessConfig fields of
// WorkloadConfig, and sizes its work from --seconds so that one (seed,
// seconds) pair always runs the same sequence of operations.
#ifndef RCWBENCH_WORKLOADS_H_
#define RCWBENCH_WORKLOADS_H_

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rcwbench/src/inputs.h"
#include "rcwbench/src/report.h"
#include "rcwbench/src/trace.h"

namespace rcwbench {

struct RunOptions {
  /// Directory holding the seed's input files (inputs.h).
  std::string inputs;
  /// Measured seconds the run's work is sized for.
  double seconds = 10.0;
  /// Traced run: per-layer metrics from spans, plus the tracing overhead
  /// against an untraced pass of the same work.
  bool trace = false;
  /// Working directory for files a run writes (checkpoints).
  std::string work;
};

/// Closed loop, one client: GenerateRcw then VerifyRcw per pool node.
RunResult RunExplain(const RunOptions& opts);
/// Closed loop, one writer: WitnessMaintainer::Apply per stream batch.
RunResult RunMaintain(const RunOptions& opts);
/// Open loop over a ShardRegistry: idle, busy and saturate phases.
RunResult RunServe(const RunOptions& opts);

/// The state the last measured pass ran on, and what each pass produced.
template <typename State, typename Ops>
struct Measured {
  State state;
  std::vector<Ops> passes;
};

/// The run sequence every workload shares.
///
/// One untimed set-up (in an untraced run the process's first, which alone
/// pays for reading the inputs and growing the heap), `setups` timed set-ups
/// with `passes` measured passes spread evenly between them: each pass runs
/// `measure` on the state of the set-up just before it (traced in a traced
/// run), so every pass starts from a fresh state. A traced run first
/// measures `passes` untraced passes: the ones trace.overhead_ms compares
/// with.
///
/// Fills setup_s, the fastest timed set-up; peak_rss_mb as of the end of
/// the last pass; and in a traced run the set-up spans' metrics
/// (AddSetupSpanMetrics), trace.p50_ms and trace.overhead_ms, where
/// `p50(passes)` is the p50_ms the workload reports for its passes.
///
/// Why the fastest set-up, and why several passes: on a VM whose vCPUs
/// share cores with other tenants, the same work runs in either of two
/// speeds about 1.8x apart, and the slow one can last for seconds. Over
/// 300 back-to-back set-ups of explain in each of eight processes the
/// median ranged from 12.8 to 21.4 ms, the 10th percentile from 11.6 to
/// 12.2 ms and the minimum from 11.1 to 11.5 ms; three runs of one seed of
/// explain in a row gave a p50 of 28.1, 26.2 and 24.1 ms. The minimum of
/// several tries spread over the run needs one of them to run uncontended,
/// and it moves with every change to the work itself. Workloads whose
/// operations repeat exactly from a fresh state (explain, maintain) report
/// each operation's best time over the passes the same way.
template <typename SetupFn, typename MeasureFn, typename P50Fn>
auto SetUpAndMeasure(const RunOptions& opts, int setups, int passes,
                     SetupFn setup, MeasureFn measure, P50Fn p50,
                     RunResult* result)
    -> Measured<decltype(setup(false)), decltype(measure(setup(false)))> {
  using State = decltype(setup(false));
  using Ops = decltype(measure(setup(false)));
  auto& v = result->values;
  double untraced_p50 = 0.0;
  if (opts.trace) {
    std::vector<Ops> untraced;
    for (int p = 0; p < passes; ++p) untraced.push_back(measure(setup(false)));
    untraced_p50 = p50(untraced);
    EnableTracing(true);
  }
  std::vector<double> setup_s;
  std::optional<State> state;
  auto timed_setup = [&] {
    state.reset();
    const int64_t t0 = NowNs();
    state.emplace(setup(opts.trace));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  };
  state.emplace(setup(opts.trace));
  std::vector<Ops> ops;
  int done = 0;
  for (int p = 0; p < passes; ++p) {
    const int before = std::max(done + 1, setups * (p + 1) / (passes + 1));
    for (; done < before; ++done) timed_setup();
    ops.push_back(measure(*state));
  }
  EnableTracing(false);
  v["peak_rss_mb"] = PeakRssMb();
  State last = std::move(*state);
  for (; done < setups; ++done) timed_setup();
  v["setup_s"] = *std::min_element(setup_s.begin(), setup_s.end());
  if (opts.trace) {
    AddSetupSpanMetrics(RecordedSpans(), &v);
    v["trace.p50_ms"] = p50(ops);
    v["trace.overhead_ms"] = v["trace.p50_ms"] - untraced_p50;
  }
  return {std::move(last), std::move(ops)};
}

/// Per-operation best time over passes that ran the same operations in the
/// same order: element i is the minimum of ms(pass, i) over the passes.
template <typename Ops, typename MsFn>
std::vector<double> BestOfPasses(const std::vector<Ops>& passes, size_t n,
                                 MsFn ms) {
  std::vector<double> best(n);
  for (size_t i = 0; i < n; ++i) {
    best[i] = ms(passes.front(), i);
    for (const Ops& pass : passes) best[i] = std::min(best[i], ms(pass, i));
  }
  return best;
}

}  // namespace rcwbench

#endif  // RCWBENCH_WORKLOADS_H_
