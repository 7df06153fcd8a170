#include "rcwbench/src/inputs.h"

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rcwbench/src/report.h"
#include "src/datasets/synthetic.h"
#include "src/explain/robogexp.h"
#include "src/explain/witness_io.h"
#include "src/gnn/serialize.h"
#include "src/gnn/trainer.h"
#include "src/graph/io.h"
#include "src/serve/scenario.h"
#include "src/stream/update.h"
#include "src/stream/update_io.h"

namespace rcwbench {

using namespace robogexp;

namespace {

constexpr int kPoolSize = 1200;
constexpr int kVtSize = 64;
/// Long enough for the longest run: a maintain pass applies at most 1,000
/// batches.
constexpr int kStreamBatches = 4500;
constexpr int kTraceRequests = 200000;

Status SaveNodeList(const std::vector<NodeId>& nodes, const std::string& path) {
  std::ofstream f(path);
  for (size_t i = 0; i < nodes.size(); ++i) {
    f << (i > 0 ? "," : "") << nodes[i];
  }
  f << "\n";
  f.close();
  if (!f) return Status::Internal("cannot write " + path);
  return Status::OK();
}

}  // namespace

WitnessConfig WorkloadConfig(const Graph& graph, const GnnModel& model,
                             std::vector<NodeId> nodes) {
  WitnessConfig cfg;
  cfg.graph = &graph;
  cfg.model = &model;
  cfg.test_nodes = std::move(nodes);
  cfg.k = 20;
  cfg.local_budget = 1;
  cfg.hop_radius = 3;
  cfg.max_contrast_classes = 3;
  return cfg;
}

InputPaths::InputPaths(const std::string& dir)
    : graph(dir + "/graph.rgx"),
      model(dir + "/model.gnn"),
      pool(dir + "/pool.csv"),
      vt(dir + "/vt.csv"),
      witness(dir + "/witness.rcw"),
      stream(dir + "/stream.rsu"),
      trace(dir + "/trace.rrt") {}

Status GenerateInputs(uint64_t seed, const std::string& dir) {
  const InputPaths paths(dir);
  const Graph graph = MakeCiteSeerSim(1.0, seed);
  RCW_RETURN_IF_ERROR(SaveGraph(graph, paths.graph));

  TrainOptions topts;
  topts.seed = seed;
  topts.hidden_dims = {32, 32};
  topts.epochs = 100;
  const auto model =
      TrainGcn(graph, SampleTrainNodes(graph, 0.5, seed), topts);
  RCW_RETURN_IF_ERROR(SaveModel(*model, paths.model));

  const auto pool =
      SelectExplainableTestNodes(*model, graph, kPoolSize, {}, seed + 1);
  const auto vt =
      SelectExplainableTestNodes(*model, graph, kVtSize, {}, seed + 2);
  if (static_cast<int>(vt.size()) < kVtSize || pool.empty()) {
    return Status::Internal("too few explainable test nodes");
  }
  RCW_RETURN_IF_ERROR(SaveNodeList(pool, paths.pool));
  RCW_RETURN_IF_ERROR(SaveNodeList(vt, paths.vt));

  const GenerateResult generated =
      GenerateRcw(WorkloadConfig(graph, *model, vt));
  RCW_RETURN_IF_ERROR(SaveWitness(generated.witness, paths.witness));

  StreamSampleOptions sopts;
  sopts.num_batches = kStreamBatches;
  sopts.ops_per_batch = 1;
  sopts.insert_fraction = 0.1;
  sopts.focus_nodes = vt;
  sopts.hop_radius = 2;
  sopts.avoid_keys = generated.witness.edge_keys();
  Rng rng(seed + 3);
  RCW_RETURN_IF_ERROR(
      SaveUpdateStream(SampleUpdateStream(graph, sopts, &rng), paths.stream));

  ScenarioOptions scenario;
  scenario.kind = ScenarioKind::kZipf;
  scenario.seed = seed + 4;
  scenario.num_requests = kTraceRequests;
  scenario.views = {"full", "sub", "removed"};
  auto synthesized = SynthesizeScenario({&graph}, scenario);
  RCW_RETURN_IF_ERROR(synthesized.status());
  return SaveRequestTrace(synthesized.value().trace, paths.trace);
}

StatusOr<Loaded> LoadGraphAndModel(const InputPaths& paths, bool traced) {
  Loaded in;
  {
    ScopedSpan span("graph.load");
    auto g = LoadGraph(paths.graph);
    RCW_RETURN_IF_ERROR(g.status());
    in.graph = std::make_unique<Graph>(std::move(g).value());
  }
  {
    ScopedSpan span("gnn.load");
    auto m = LoadModel(paths.model);
    RCW_RETURN_IF_ERROR(m.status());
    in.gcn = std::move(m).value();
  }
  if (traced) in.traced = std::make_unique<TracedModel>(in.gcn.get());
  return in;
}

void AddSetupSpanMetrics(const std::vector<Span>& spans,
                         std::map<std::string, double>* values) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  for (const char* name :
       {"graph.load", "gnn.load", "explain.load", "stream.init"}) {
    const SpanTotals t = TotalsFor(spans, self, name);
    if (t.count > 0) (*values)[std::string(name) + "_ms"] = Median(t.each_ms);
  }
}

StatusOr<std::vector<NodeId>> LoadNodeList(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("cannot open " + path);
  std::vector<NodeId> nodes;
  std::string item;
  while (std::getline(f, item, ',')) {
    std::istringstream ss(item);
    NodeId v;
    if (!(ss >> v)) return Status::InvalidArgument("bad node id in " + path);
    nodes.push_back(v);
  }
  if (nodes.empty()) return Status::InvalidArgument("empty node list " + path);
  return nodes;
}

}  // namespace rcwbench
