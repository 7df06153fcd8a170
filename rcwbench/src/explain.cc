// explain: the paper's core path. One client, closed loop; each request
// takes the next node of the explainable pool and runs GenerateRcw and then
// VerifyRcw on a fresh engine, as `robogexp generate` followed by
// `robogexp verify` does, with k = 20 and b = 1 (Fig. 4). Heavy in PRI/PPR
// and whole-graph evidence forwards; never touches the stream or serve
// layers.
#include <algorithm>
#include <string>
#include <vector>

#include "rcwbench/src/inputs.h"
#include "rcwbench/src/trace.h"
#include "rcwbench/src/workloads.h"
#include "src/explain/robogexp.h"
#include "src/explain/verify.h"

namespace rcwbench {

using namespace robogexp;

namespace {

/// Timed set-ups per run: loading the graph and model takes 11 to 20 ms on
/// a 4-vCPU Xeon VM, so 300 set-ups sample 3 to 6 s of the host.
constexpr int kSetups = 300;
/// Requests per measured second: a request takes 14 to 28 ms on a 4-vCPU
/// Xeon VM, depending on what else the host runs.
constexpr double kRequestsPerSecond = 50.0;
/// Passes over the run's pool nodes, each on a fresh set-up; a request's
/// latency is its node's best time over them (SetUpAndMeasure).
constexpr int kPasses = 5;

struct State {
  Loaded in;
  std::vector<NodeId> pool;
};

State Setup(const InputPaths& paths, bool traced) {
  return {Must(LoadGraphAndModel(paths, traced)),
          Must(LoadNodeList(paths.pool))};
}

struct Request {
  NodeId node = kInvalidNode;
  double ms = 0.0;
  GenerateResult generated;
  bool verified = false;
  EngineStats engine;  // generate + verify engines
};

/// One pass: a request for each of the first `n` pool nodes, in order.
struct Requests {
  std::vector<Request> requests;
};

/// Runs `n` requests on the state's model.
Requests Measure(const State& s, int n) {
  const Graph& graph = *s.in.graph;
  const GnnModel& model = s.in.model();
  Requests out;
  out.requests.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Request& r = out.requests[static_cast<size_t>(i)];
    r.node = s.pool[static_cast<size_t>(i) % s.pool.size()];
    const WitnessConfig cfg = WorkloadConfig(graph, model, {r.node});
    const int64_t t0 = NowNs();
    {
      ScopedSpan op("explain.request", 0, i);
      InferenceEngine gen_engine(&model, &graph);
      {
        ScopedSpan span("explain.generate");
        AmbientParent ambient;
        r.generated = GenerateRcw(cfg, {}, &gen_engine);
      }
      InferenceEngine verify_engine(&model, &graph);
      {
        ScopedSpan span("explain.verify");
        AmbientParent ambient;
        r.verified = VerifyRcw(cfg, r.generated.witness, &verify_engine).ok;
      }
      r.engine = gen_engine.stats();
      r.engine += verify_engine.stats();
    }
    r.ms = static_cast<double>(NowNs() - t0) / 1e6;
  }
  return out;
}

/// Each pool node's best request latency over the passes.
std::vector<double> BestMs(const std::vector<Requests>& passes) {
  return BestOfPasses(passes, passes.front().requests.size(),
                      [](const Requests& p, size_t i) {
                        return p.requests[i].ms;
                      });
}

double P50(const std::vector<Requests>& passes) {
  return Median(BestMs(passes));
}

}  // namespace

RunResult RunExplain(const RunOptions& opts) {
  RunResult result;
  const InputPaths paths(opts.inputs);
  // Pool nodes per pass.
  const int n = std::max(
      1, static_cast<int>(kRequestsPerSecond * opts.seconds / kPasses));

  const auto [state, passes] = SetUpAndMeasure(
      opts, kSetups, kPasses,
      [&](bool traced) { return Setup(paths, traced); },
      [&](const State& s) { return Measure(s, n); }, P50, &result);
  const Graph& graph = *state.in.graph;
  std::vector<Request> requests;
  for (const Requests& pass : passes) {
    requests.insert(requests.end(), pass.requests.begin(),
                    pass.requests.end());
  }
  const int64_t attempted = static_cast<int64_t>(requests.size());

  // Output check, untimed: every witness re-verified on a fresh engine with
  // the plain model must give the request's verdict, and a secured node's
  // witness must verify.
  int64_t secured = 0;
  for (const Request& r : requests) {
    const bool reverified =
        VerifyRcw(WorkloadConfig(graph, *state.in.gcn, {r.node}),
                  r.generated.witness)
            .ok;
    const bool nontrivial = r.generated.unsecured.empty() &&
                            !r.generated.trivial &&
                            r.generated.witness.num_edges() > 0;
    const bool ok = reverified == r.verified && (!nontrivial || r.verified);
    if (!ok) ++result.failed;
    if (ok && nontrivial && r.verified) ++secured;
  }
  result.attempted = attempted;
  result.correct = result.failed == 0;

  const std::vector<double> best = BestMs(passes);
  auto& v = result.values;
  v["p50_ms"] = Percentile(best, 50);
  v["p90_ms"] = Percentile(best, 90);
  // One closed-loop client: every request meets an otherwise idle system.
  v["idle_p50_ms"] = v["p50_ms"];
  // One closed-loop client's rate at the median request, as on maintain.
  v["peak_rps"] = 1e3 / v["p50_ms"];
  v["secured_frac"] = static_cast<double>(secured) / attempted;
  std::vector<double> all_ms;
  for (const Request& r : requests) all_ms.push_back(r.ms);
  result.notes.push_back(
      "explain: " + std::to_string(kPasses) + " passes of " +
      std::to_string(n) + " pool nodes; fail_rate " +
      std::to_string(static_cast<double>(result.failed) / attempted) +
      "; p50 of all requests " + std::to_string(Percentile(all_ms, 50)) +
      " ms, of best times " + std::to_string(v["p50_ms"]) + " ms");

  if (opts.trace) {
    const std::vector<Span> spans = RecordedSpans();
    const std::vector<int64_t> self = SelfTimesNs(spans);
    const SpanTotals gen = TotalsFor(spans, self, "explain.generate");
    const SpanTotals ver = TotalsFor(spans, self, "explain.verify");
    const SpanTotals evidence = TotalsFor(spans, self, "gnn.evidence");
    const SpanTotals forward = TotalsFor(spans, self, "gnn.forward");
    v["gnn.evidence_calls"] = static_cast<double>(evidence.count);
    v["gnn.evidence_ms"] = evidence.ms / attempted;
    v["gnn.forward_calls"] = static_cast<double>(forward.count);
    v["gnn.forward_rows"] = static_cast<double>(forward.rows);
    v["gnn.forward_ms"] = forward.ms / attempted;
    v["explain.generate_ms"] = gen.ms / attempted;
    v["explain.verify_ms"] = ver.ms / attempted;
    v["explain.self_ms"] = (gen.self_ms + ver.self_ms) / attempted;
    EngineStats engine;
    int64_t pri = 0, rounds = 0, edges = 0;
    for (const Request& r : requests) {
      engine += r.engine;
      pri += r.generated.stats.pri_calls;
      rounds += r.generated.stats.secure_rounds;
      edges += static_cast<int64_t>(r.generated.witness.num_edges());
    }
    v["gnn.model_invocations"] = static_cast<double>(engine.model_invocations);
    v["gnn.hit_ratio"] = engine.node_queries > 0
                             ? static_cast<double>(engine.cache_hits) /
                                   static_cast<double>(engine.node_queries)
                             : 0.0;
    v["explain.pri_calls"] = static_cast<double>(pri);
    v["explain.secure_rounds"] = static_cast<double>(rounds);
    v["explain.witness_edges"] = static_cast<double>(edges);
  }
  return result;
}

}  // namespace rcwbench
