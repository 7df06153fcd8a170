// maintain: the write side of the engine cache. One writer, closed loop:
// Initialize over the 64-node VT is set-up; then the update stream is
// applied one batch at a time, with a Checkpoint after every 10th batch
// inside that batch's latency, as `robogexp stream --checkpoint-every 10`
// does. Exercises per-ball invalidation and revalidation, the stream layer
// and checkpoint IO; never touches the serve layer.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "rcwbench/src/inputs.h"
#include "rcwbench/src/trace.h"
#include "rcwbench/src/workloads.h"
#include "src/explain/verify.h"
#include "src/stream/maintain.h"
#include "src/stream/update_io.h"

namespace rcwbench {

using namespace robogexp;

namespace {

/// Timed set-ups per run: each loads the inputs and runs Initialize, 0.5 to
/// 0.9 s.
constexpr int kSetups = 20;
/// Batches per measured second: a batch takes about 20 ms on a 4-vCPU Xeon
/// VM.
constexpr double kBatchesPerSecond = 50.0;
constexpr int kCheckpointEvery = 10;
/// Passes over the stream's first batches, each from a fresh set-up; a
/// batch's latency is its best time over them (SetUpAndMeasure).
constexpr int kPasses = 2;
/// Batches per pass at most. The stream erodes VT's 2-hop neighbourhoods
/// (90% deletions), and after 1,400 to 3,400 batches some seeds leave a
/// node with no witness, which Apply reports as !report.ok; 1,000 batches
/// stay clear of that on every seed tried (1-15).
constexpr int kMaxBatches = 1000;

struct Maintained {
  Loaded in;
  std::vector<NodeId> vt;
  std::unique_ptr<WitnessMaintainer> maintainer;
};

/// Loads the inputs and initializes a maintainer over VT on the loaded
/// model (a TracedModel over it in traced set-ups).
Maintained Setup(const InputPaths& paths, bool traced) {
  Maintained m{Must(LoadGraphAndModel(paths, traced)),
               Must(LoadNodeList(paths.vt)), nullptr};
  m.maintainer = std::make_unique<WitnessMaintainer>(
      m.in.graph.get(), WorkloadConfig(*m.in.graph, m.in.model(), m.vt));
  ScopedSpan span("stream.init");
  AmbientParent ambient;
  m.maintainer->Initialize();
  return m;
}

/// Runs `fn` with the maintainer's config pointing at the plain GCN.
/// ModelFingerprint (Checkpoint, ExportState) serializes the model by its
/// concrete type and aborts on a TracedModel; the wrapper computes the same
/// logits, so only the fingerprint sees the swap.
template <typename Fn>
auto WithPlainModel(const Maintained& m, Fn fn) {
  auto& cfg = const_cast<WitnessConfig&>(m.maintainer->config());
  const GnnModel* model = cfg.model;
  cfg.model = m.in.gcn.get();
  auto out = fn();
  cfg.model = model;
  return out;
}

struct Batch {
  double ms = 0.0;
  bool ok = false;
  MaintainAction action = MaintainAction::kUntouched;
  int inference_calls = 0;
};

/// One pass: the stream's first `n` batches, in order.
struct Batches {
  std::vector<Batch> batches;
  /// Engine work of the measured batches.
  EngineStats engine;
};

Batches Measure(const Maintained& m, const std::vector<UpdateBatch>& stream,
                int n, const std::string& checkpoint) {
  Batches out;
  out.batches.resize(static_cast<size_t>(n));
  const EngineStats engine_before = m.maintainer->engine().stats();
  for (int b = 0; b < n; ++b) {
    Batch& batch = out.batches[static_cast<size_t>(b)];
    const int64_t t0 = NowNs();
    {
      ScopedSpan op("maintain.batch", 0, b);
      std::optional<StatusOr<MaintainReport>> report;
      {
        ScopedSpan span("stream.apply");
        AmbientParent ambient;
        report = m.maintainer->Apply(stream[static_cast<size_t>(b)]);
      }
      batch.ok = report->ok() && report->value().ok;
      if (report->ok()) {
        batch.action = report->value().action;
        batch.inference_calls = report->value().inference_calls;
      }
      if ((b + 1) % kCheckpointEvery == 0) {
        ScopedSpan span("stream.checkpoint");
        const Status s = WithPlainModel(
            m, [&] { return m.maintainer->Checkpoint(checkpoint); });
        batch.ok = batch.ok && s.ok();
      }
    }
    batch.ms = static_cast<double>(NowNs() - t0) / 1e6;
  }
  out.engine = m.maintainer->engine().stats() - engine_before;
  return out;
}

/// Each batch's best latency over the passes.
std::vector<double> BestMs(const std::vector<Batches>& passes) {
  return BestOfPasses(
      passes, passes.front().batches.size(),
      [](const Batches& p, size_t i) { return p.batches[i].ms; });
}

double P50(const std::vector<Batches>& passes) {
  return Median(BestMs(passes));
}

std::string FileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// The last checkpoint survives a LoadPortfolio round trip: re-saving the
/// loaded state, and saving the maintainer's current state, both reproduce
/// the file byte for byte.
bool CheckpointRoundTrips(const Maintained& m, const std::string& checkpoint) {
  const auto loaded = LoadPortfolio(checkpoint);
  if (!loaded.ok()) return false;
  const std::string resaved = checkpoint + ".resaved";
  const std::string exported = checkpoint + ".exported";
  const PortfolioState state =
      WithPlainModel(m, [&] { return m.maintainer->ExportState(); });
  if (!SavePortfolio(loaded.value(), resaved).ok() ||
      !SavePortfolio(state, exported).ok()) {
    return false;
  }
  const std::string bytes = FileBytes(checkpoint);
  return !bytes.empty() && FileBytes(resaved) == bytes &&
         FileBytes(exported) == bytes;
}

}  // namespace

RunResult RunMaintain(const RunOptions& opts) {
  RunResult result;
  const InputPaths paths(opts.inputs);
  // Read before the clock starts.
  const std::vector<UpdateBatch> stream = Must(LoadUpdateStream(paths.stream));
  // Batches per pass, in whole checkpoint periods, so the last batch writes
  // the last checkpoint.
  int n = static_cast<int>(kBatchesPerSecond * opts.seconds / kPasses);
  n = std::max(kCheckpointEvery, n - n % kCheckpointEvery);
  n = std::min({n, kMaxBatches,
                static_cast<int>(stream.size() -
                                 stream.size() % kCheckpointEvery)});
  if (n <= 0) {
    std::fprintf(stderr, "rcwbench: stream too short\n");
    std::exit(1);
  }
  const std::string checkpoint = opts.work + "/portfolio.rwp";

  const auto [m, passes] = SetUpAndMeasure(
      opts, kSetups, kPasses,
      [&](bool traced) { return Setup(paths, traced); },
      [&](const Maintained& state) {
        return Measure(state, stream, n, checkpoint);
      },
      P50, &result);
  const Graph& graph = *m.in.graph;
  std::vector<Batch> batches;
  EngineStats engine;
  for (const Batches& pass : passes) {
    batches.insert(batches.end(), pass.batches.begin(), pass.batches.end());
    engine += pass.engine;
  }
  const int64_t attempted = static_cast<int64_t>(batches.size());

  // Output checks, untimed: every batch of every pass applied with
  // report.ok; at the end of the last pass every covered node verifies on
  // a fresh engine with the plain model, and the last checkpoint
  // round-trips.
  for (const Batch& b : batches) {
    if (!b.ok) ++result.failed;
  }
  const std::vector<NodeId> unsecured = m.maintainer->unsecured();
  int64_t covered = 0, verified = 0;
  for (NodeId v : m.vt) {
    if (std::binary_search(unsecured.begin(), unsecured.end(), v)) continue;
    ++covered;
    if (VerifyRcw(WorkloadConfig(graph, *m.in.gcn, {v}),
                  m.maintainer->witness())
            .ok) {
      ++verified;
    }
  }
  const bool round_trip = CheckpointRoundTrips(m, checkpoint);
  result.attempted = attempted;
  result.correct = result.failed == 0 && verified == covered && round_trip;

  const std::vector<double> best = BestMs(passes);
  std::vector<double> all_ms;
  for (const Batch& b : batches) all_ms.push_back(b.ms);
  auto& v = result.values;
  v["p50_ms"] = Percentile(best, 50);
  v["p90_ms"] = Percentile(best, 90);
  // One closed-loop writer: every batch meets an otherwise idle system.
  v["idle_p50_ms"] = v["p50_ms"];
  // One closed-loop writer's rate at the median batch. Not the mean: one
  // regenerating batch costs as much as 40 others, and whether a run's
  // batches hold none, one or two of them depends on the seed.
  v["peak_rps"] = 1e3 / v["p50_ms"];
  v["secured_frac"] = static_cast<double>(verified) / m.vt.size();
  result.notes.push_back(
      "maintain: " + std::to_string(kPasses) + " passes of " +
      std::to_string(n) + " batches; p50 of all batches " +
      std::to_string(Percentile(all_ms, 50)) + " ms, of best times " +
      std::to_string(v["p50_ms"]) + " ms; fail_rate " +
      std::to_string(static_cast<double>(result.failed) / attempted) + "; " +
      std::to_string(verified) + "/" + std::to_string(covered) +
      " covered nodes verify; checkpoint round trip " +
      (round_trip ? "ok" : "FAILED"));

  if (opts.trace) {
    const std::vector<Span> spans = RecordedSpans();
    const std::vector<int64_t> self = SelfTimesNs(spans);
    const SpanTotals apply = TotalsFor(spans, self, "stream.apply");
    const SpanTotals ckpt = TotalsFor(spans, self, "stream.checkpoint");
    // Evidence and forward work of the measured batches only (set-up's
    // Initialize is stream.init_ms).
    const SpanTotals evidence = TotalsFor(spans, self, "gnn.evidence", true);
    const SpanTotals forward = TotalsFor(spans, self, "gnn.forward", true);
    v["stream.apply_ms"] = apply.ms / attempted;
    v["stream.self_ms"] = apply.self_ms / attempted;
    v["stream.checkpoint_ms"] = ckpt.count > 0 ? ckpt.ms / ckpt.count : 0.0;
    v["gnn.evidence_calls"] = static_cast<double>(evidence.count);
    v["gnn.evidence_ms"] = evidence.ms / attempted;
    v["gnn.forward_calls"] = static_cast<double>(forward.count);
    v["gnn.forward_rows"] = static_cast<double>(forward.rows);
    v["gnn.forward_ms"] = forward.ms / attempted;
    v["gnn.model_invocations"] = static_cast<double>(engine.model_invocations);
    v["gnn.hit_ratio"] = engine.node_queries > 0
                             ? static_cast<double>(engine.cache_hits) /
                                   static_cast<double>(engine.node_queries)
                             : 0.0;
    int64_t calls = 0;
    std::map<MaintainAction, int64_t> actions;
    for (const Batch& b : batches) {
      calls += b.inference_calls;
      ++actions[b.action];
    }
    v["stream.untouched"] =
        static_cast<double>(actions[MaintainAction::kUntouched]);
    v["stream.certified"] =
        static_cast<double>(actions[MaintainAction::kCertified]);
    v["stream.resecured"] =
        static_cast<double>(actions[MaintainAction::kResecured]);
    v["stream.regenerated"] =
        static_cast<double>(actions[MaintainAction::kRegenerated]);
    v["stream.inference_calls"] = static_cast<double>(calls);
  }
  return result;
}

}  // namespace rcwbench
