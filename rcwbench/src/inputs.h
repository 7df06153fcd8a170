// Seeded inputs. One seed gives one set of files, byte for byte, in the
// repository's own formats, so workloads read them through the same loaders
// as the `robogexp` CLI:
//
//   graph.rgx    CiteSeer-sim at full scale (3,327 nodes, Table II)
//   model.gnn    3-layer GCN, hidden 32-32, trained on half the nodes
//   pool.csv     explainable test nodes, the explain workload's requests
//   vt.csv       the 64 test nodes VT of the witness and the maintainer
//   witness.rcw  a k-RCW for VT
//   stream.rsu   one edge update per batch within 2 hops of VT, about 10%
//                insertions; deletions avoid the witness's edges
//   trace.rrt    Zipf-popular requests over the full / sub / removed views
//
// Dataset synthesis, training and witness generation happen here, never in
// a workload's timed set-up. The set-up steps every workload shares, loading
// the graph and model and the metrics of their spans, live here too.
#ifndef RCWBENCH_INPUTS_H_
#define RCWBENCH_INPUTS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rcwbench/src/trace.h"
#include "src/explain/config.h"
#include "src/util/status.h"

namespace rcwbench {

/// The workload-defining WitnessConfig fields: k = 20, b = 1 (the paper's
/// Fig. 4 setting), hop radius 3 and 3 contrast classes (the CLI defaults).
/// Every other field keeps its default.
robogexp::WitnessConfig WorkloadConfig(const robogexp::Graph& graph,
                                       const robogexp::GnnModel& model,
                                       std::vector<robogexp::NodeId> nodes);

struct InputPaths {
  explicit InputPaths(const std::string& dir);
  std::string graph, model, pool, vt, witness, stream, trace;
};

/// Writes the input set of `seed` into the existing directory `dir`.
robogexp::Status GenerateInputs(uint64_t seed, const std::string& dir);

/// The graph and model every workload runs on, read through the CLI's
/// loaders inside "graph.load" and "gnn.load" spans.
struct Loaded {
  std::unique_ptr<robogexp::Graph> graph;
  /// The loaded GCN: output checks and checkpoints use it.
  std::unique_ptr<robogexp::GnnModel> gcn;
  /// Traced set-ups only: a TracedModel over `gcn`.
  std::unique_ptr<TracedModel> traced;
  /// The model the workload's operations run on.
  const robogexp::GnnModel& model() const {
    return traced ? *traced : *gcn;
  }
};
robogexp::StatusOr<Loaded> LoadGraphAndModel(const InputPaths& paths,
                                             bool traced);

/// Per-layer metrics of the set-up spans that `spans` holds, each the
/// median over set-ups: graph.load_ms, gnn.load_ms, explain.load_ms (the
/// witness loader) and stream.init_ms (WitnessMaintainer::Initialize).
void AddSetupSpanMetrics(const std::vector<Span>& spans,
                         std::map<std::string, double>* values);

/// The value of `s`; on error, prints the status and exits with code 1
/// (a run with unusable inputs prints no result).
template <typename T>
T Must(robogexp::StatusOr<T> s) {
  if (!s.ok()) {
    std::fprintf(stderr, "rcwbench: %s\n", s.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(s).value();
}

/// A node list as one line of comma-separated ids (the CLI's --nodes form).
robogexp::StatusOr<std::vector<robogexp::NodeId>> LoadNodeList(
    const std::string& path);

}  // namespace rcwbench

#endif  // RCWBENCH_INPUTS_H_
