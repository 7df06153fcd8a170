#include "bench/common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/datasets/molecules.h"

namespace robogexp::bench {

BenchEnv BenchEnv::FromEnvironment() {
  BenchEnv env;
  if (const char* s = std::getenv("ROBOGEXP_BENCH_SCALE")) {
    env.scale = std::atof(s);
  }
  if (const char* s = std::getenv("ROBOGEXP_BENCH_TRIALS")) {
    env.trials = std::atoi(s);
  }
  if (const char* s = std::getenv("ROBOGEXP_BENCH_FAITHFUL")) {
    env.faithful = std::atoi(s) != 0;
  }
  return env;
}

Workload PrepareWorkload(const std::string& dataset_name, double scale,
                         bool faithful, int test_pool_size, uint64_t seed) {
  Workload w;
  w.name = dataset_name;
  if (dataset_name == "BAHouse") {
    w.graph = std::make_unique<Graph>(MakeBaHouse({}));
  } else if (dataset_name == "CiteSeer") {
    w.graph = std::make_unique<Graph>(MakeCiteSeerSim(scale, seed));
  } else if (dataset_name == "PPI") {
    w.graph = std::make_unique<Graph>(MakePpiSim(scale, seed));
  } else if (dataset_name == "Reddit") {
    w.graph = std::make_unique<Graph>(MakeRedditSim(scale, seed));
  } else if (dataset_name == "Mutagenicity") {
    MoleculeDatasetOptions mopts;
    mopts.num_molecules = std::max(20, static_cast<int>(60 * scale));
    w.graph = std::make_unique<Graph>(MakeMutagenicityDataset(mopts));
  } else {
    RCW_CHECK_MSG(false, "unknown dataset");
  }

  TrainOptions topts;
  topts.seed = seed;
  if (faithful) {
    // Sec. VII: 3 convolution layers, embedding dimension 128.
    topts.hidden_dims = {128, 128};
    topts.epochs = 150;
  } else {
    topts.hidden_dims = {32, 32};
    topts.epochs = 100;
  }
  Timer t;
  const auto train = SampleTrainNodes(*w.graph, 0.5, seed);
  w.model = TrainGcn(*w.graph, train, topts);
  w.train_seconds = t.Seconds();
  w.test_pool = SelectExplainableTestNodes(*w.model, *w.graph, test_pool_size,
                                           {}, seed + 1);
  return w;
}

#ifndef ROBOGEXP_GIT_SHA
#define ROBOGEXP_GIT_SHA "unknown"
#endif

BenchJson::BenchJson(std::string name) : name_(std::move(name)) {
  // Every report leads with its schema version and source revision, so CI
  // artifact consumers can diff reports across commits without guessing
  // which field layout (or code) produced them.
  Add("schema_version", static_cast<int64_t>(kSchemaVersion));
  Add("git_sha", std::string(ROBOGEXP_GIT_SHA));
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void BenchJson::Add(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}

void BenchJson::Add(const std::string& key, double value) {
  std::ostringstream ss;
  ss << value;
  fields_.emplace_back(key, ss.str());
}

void BenchJson::Add(const std::string& key, const std::string& value) {
  // Appended piece by piece: `"\"" + std::string` trips GCC 12's
  // -Wrestrict false positive.
  const std::string escaped = JsonEscape(value);
  std::string quoted;
  quoted.reserve(escaped.size() + 2);
  quoted += '"';
  quoted += escaped;
  quoted += '"';
  fields_.emplace_back(key, std::move(quoted));
}

void BenchJson::Add(const std::string& key, const LatencySummary& summary) {
  Add(key + ".count", summary.count);
  Add(key + ".mean_us", summary.mean_us);
  Add(key + ".p50_us", summary.p50_us);
  Add(key + ".p90_us", summary.p90_us);
  Add(key + ".p99_us", summary.p99_us);
  Add(key + ".p999_us", summary.p999_us);
  Add(key + ".max_us", summary.max_us);
}

bool BenchJson::Write() const {
  const char* dir = std::getenv("ROBOGEXP_BENCH_JSON_DIR");
  const std::string path =
      (dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" : "") +
      "BENCH_" + name_ + ".json";
  std::ofstream f(path);
  if (f) {
    f << "{\n";
    for (size_t i = 0; i < fields_.size(); ++i) {
      f << "  \"" << JsonEscape(fields_[i].first) << "\": "
        << fields_[i].second << (i + 1 < fields_.size() ? ",\n" : "\n");
    }
    f << "}\n";
  }
  if (!f) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return false;
  }
  std::printf("bench report written to %s\n", path.c_str());
  return true;
}

std::vector<NodeId> TestNodes(const Workload& w, int n) {
  std::vector<NodeId> nodes = w.test_pool;
  if (static_cast<int>(nodes.size()) > n) nodes.resize(static_cast<size_t>(n));
  return nodes;
}

QualityResult EvaluateQuality(const Workload& w, Explainer* explainer,
                              const std::vector<NodeId>& test_nodes, int k,
                              int local_budget, int trials, uint64_t seed) {
  QualityResult out;
  Timer gen_timer;
  const Witness original = explainer->Explain(*w.graph, *w.model, test_nodes);
  out.generation_seconds = gen_timer.Seconds();
  out.size = static_cast<double>(original.Size());

  if (trials == 0) {
    // No disturbance trials: report fidelity on the original graph.
    out.fidelity_plus = FidelityPlus(*w.graph, *w.model, test_nodes, original);
    out.fidelity_minus =
        FidelityMinus(*w.graph, *w.model, test_nodes, original);
    return out;
  }

  // The paper's quality metrics are robustness-sensitive: the explanation is
  // generated once on G, then (i) its fidelity is measured on each disturbed
  // variant ~G (does it stay factual and counterfactual?) and (ii) it is
  // compared (normalized GED) against the explanation re-generated on ~G
  // (does the method find the same "invariant" structure?).
  Rng rng(seed);
  double ged_sum = 0.0, fplus_sum = 0.0, fminus_sum = 0.0;
  for (int t = 0; t < trials; ++t) {
    DisturbanceOptions dopts;
    dopts.k = k;
    dopts.local_budget = local_budget;
    dopts.focus_nodes = test_nodes;
    // Concentrate flips in the immediate neighborhoods of the test nodes:
    // removals far from every test node are inert for an L-layer model, so
    // sampling them would only dilute the measurement.
    dopts.hop_radius = 2;
    // The k-RCW disturbance model only flips pairs of G \ Gw, so a robust
    // explainer's edges are protected; baseline explanations carry no such
    // contract and are disturbed like any other edge.
    const std::unordered_set<uint64_t> no_protection;
    const auto flips = SampleDisturbance(
        *w.graph, explainer->robust() ? original.edge_keys() : no_protection,
        dopts, &rng);
    const Graph disturbed = ApplyDisturbance(*w.graph, flips);
    fplus_sum += FidelityPlus(disturbed, *w.model, test_nodes, original);
    fminus_sum += FidelityMinus(disturbed, *w.model, test_nodes, original);
    Timer regen_timer;
    const Witness regenerated =
        explainer->Explain(disturbed, *w.model, test_nodes);
    out.regenerate_seconds += regen_timer.Seconds();
    ged_sum += NormalizedGed(original, regenerated);
  }
  out.norm_ged = ged_sum / trials;
  out.fidelity_plus = fplus_sum / trials;
  out.fidelity_minus = fminus_sum / trials;
  return out;
}

}  // namespace robogexp::bench
