/// \file
/// Verification of witnesses (Sec. III).
///
///  - VerifyFactual / VerifyCounterfactual — the PTIME checks of Lemmas 2-3:
///    direct inference tests M(v, Gs) = l and M(v, G ∖ Gs) != l.
///  - VerifyRcw — Algorithm 1 (verifyRCW-APPNP generalized): after the CW
///    checks, for each test node and contrast class it runs PRI to construct
///    the worst-case (k, b)-disturbance E*, then confirms by actual
///    inference that (i) the disturbed graph keeps the label
///    (M(v, G ⊕ E*) = l) and (ii) the witness stays counterfactual under
///    the disturbance (M(v, (G ⊕ E*) ∖ Gs) != l). Exact for APPNP
///    (Lemma 4); for other models PRI serves as the adversarial proposal
///    and inference is the judge. The independent per-node /
///    per-contrast-class checks (detail::CheckRobustness, shared with
///    generation) run in parallel on the shared ThreadPool, reading
///    evidence on search balls only; the reported outcome is identical to
///    the sequential order (the first failure in check order wins).
///  - VerifyRcwExhaustive — the general (NP-hard) verifier: enumerates every
///    j-disturbance, j <= k, over the local candidate pairs. Exponential;
///    the ground-truth oracle for tests and the hardness ablation.
///
/// All verifiers run on an InferenceEngine (src/gnn/engine.h): base labels
/// and logits are computed once per verification and served from the
/// per-(view, node) cache, and multi-node misses are batched into single
/// union-ball inferences. Each verifier has an engine-threading overload so
/// callers can share one cache across factual → counterfactual → RCW (and
/// across repeated verifications of the same configuration); the plain
/// overloads build a private engine per call.
///
/// The engine overloads additionally accept an optional BatchScheduler
/// (src/serve/batch_scheduler.h). When given, the verifier's warms become
/// pipelined submissions and the parallel RCW units submit their
/// per-contrast disturbance checks instead of querying synchronously, so
/// concurrent verifications sharing one engine+scheduler coalesce their
/// inference demand into union-ball flushes. Results are bit-identical with
/// and without a scheduler (a flush only warms the shared cache).
#ifndef ROBOGEXP_EXPLAIN_VERIFY_H_
#define ROBOGEXP_EXPLAIN_VERIFY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/explain/config.h"
#include "src/explain/witness.h"
#include "src/gnn/engine.h"

namespace robogexp {

class BatchScheduler;  // src/serve/batch_scheduler.h

struct VerifyResult {
  bool ok = false;
  /// Human-readable failure reason (empty when ok).
  std::string reason;
  /// A disturbance disproving robustness, when one was found.
  std::vector<Edge> counterexample;
  /// Test node whose check failed (kInvalidNode when ok).
  NodeId failed_node = kInvalidNode;
  /// GNN inference invocations performed (engine model invocations: cache
  /// hits are free, batched warms count once).
  int inference_calls = 0;
  /// Inference requests served from the engine cache.
  int64_t cache_hits = 0;
};

/// Labels assigned by M on the base graph for the configured test nodes.
std::vector<Label> BaseLabels(const WitnessConfig& cfg);
std::vector<Label> BaseLabels(const WitnessConfig& cfg,
                              InferenceEngine* engine);

/// Resolves the PPR α for PRI: the model's own α for APPNP, cfg.ppr.alpha
/// otherwise.
double ResolveAlpha(const WitnessConfig& cfg);

/// Lemma 2: is `witness` a factual witness for every test node?
VerifyResult VerifyFactual(const WitnessConfig& cfg, const Witness& witness);
VerifyResult VerifyFactual(const WitnessConfig& cfg, const Witness& witness,
                           InferenceEngine* engine,
                           BatchScheduler* scheduler = nullptr);

/// Lemma 3: is `witness` a counterfactual witness (factual + removal flips
/// the label) for every test node?
VerifyResult VerifyCounterfactual(const WitnessConfig& cfg,
                                  const Witness& witness);
VerifyResult VerifyCounterfactual(const WitnessConfig& cfg,
                                  const Witness& witness,
                                  InferenceEngine* engine,
                                  BatchScheduler* scheduler = nullptr);

/// Algorithm 1: is `witness` a k-RCW under (k, b)-disturbances? Aborts
/// unless `engine` serves the whole graph on kFullView (evidence is read
/// there), not a fragment shard's view; for k > 0 it warms the evidence
/// first (WarmEvidence), which also serves the CW checks' base logits.
VerifyResult VerifyRcw(const WitnessConfig& cfg, const Witness& witness);
VerifyResult VerifyRcw(const WitnessConfig& cfg, const Witness& witness,
                       InferenceEngine* engine,
                       BatchScheduler* scheduler = nullptr);

/// PRI's and expansion's evidence for `ball`'s nodes, one row per node:
/// APPNP's pre-propagation logits XΘ + b (Eq. 2), otherwise the model's
/// logits on G from the engine's kFullView slot (cached, counted and
/// invalidated like any other row; misses cost one batched forward).
Matrix EvidenceRows(const WitnessConfig& cfg, InferenceEngine* engine,
                    const std::vector<NodeId>& ball);

/// Warms the kFullView rows EvidenceRows reads for the search balls of
/// `nodes` with one forward over their union (a no-op for APPNP).
void WarmEvidence(const WitnessConfig& cfg, InferenceEngine* engine,
                  const std::vector<NodeId>& nodes);

namespace detail {

/// Algorithm 1's robustness units for `nodes` against `witness`, shared by
/// VerifyRcw and generation's secure rounds: per node, one per contrast
/// class, strongest runner-up first, then the back check on G ∖ Gs
/// (`removed`, bound to slot `removed_id`). Every unit's PRI search runs on
/// a grain-1 ParallelFor; the proposals are judged in parallel, each once
/// per node. Returns the first failure in that order (ok if none); `*units`,
/// if given, counts the units. Callers warm the evidence of `nodes` first.
VerifyResult CheckRobustness(const WitnessConfig& cfg,
                             const std::vector<NodeId>& nodes,
                             const Witness& witness, const GraphView& removed,
                             InferenceEngine::ViewId removed_id,
                             InferenceEngine* engine, BatchScheduler* scheduler,
                             int* units);

}  // namespace detail

/// Ground-truth verifier: enumerates all disturbances of size <= k among the
/// candidate pairs within cfg.hop_radius of the test nodes. Aborts (CHECK)
/// when the enumeration would exceed `max_combinations`.
VerifyResult VerifyRcwExhaustive(const WitnessConfig& cfg,
                                 const Witness& witness,
                                 int64_t max_combinations = 2'000'000);
VerifyResult VerifyRcwExhaustive(const WitnessConfig& cfg,
                                 const Witness& witness,
                                 int64_t max_combinations,
                                 InferenceEngine* engine);

/// Engine slots for the two witness-derived views — the Gs subgraph (factual
/// test) and the G ∖ Gs overlay (counterfactual test) — kept in sync with a
/// mutating witness. Sync() rebuilds the views and drops their cached logits
/// exactly when the witness's edge set changed since the last sync (tracked
/// via Witness::edge_version), so the generator's secure loop gets explicit
/// cache invalidation on every witness mutation and free reuse otherwise.
class WitnessEngineViews {
 public:
  explicit WitnessEngineViews(InferenceEngine* engine);
  ~WitnessEngineViews();
  WitnessEngineViews(const WitnessEngineViews&) = delete;
  WitnessEngineViews& operator=(const WitnessEngineViews&) = delete;

  /// Points the slots at `witness`'s current edge set.
  void Sync(const Witness& witness);

  /// Valid after the first Sync.
  InferenceEngine::ViewId sub_id() const { return sub_id_; }
  InferenceEngine::ViewId removed_id() const { return removed_id_; }

  /// The synced view objects (valid until the next Sync; for callers that
  /// need the view itself, e.g. to run PRI over G ∖ Gs).
  const EdgeSubsetView& sub_view() const { return *sub_; }
  const OverlayView& removed_view() const { return *removed_; }

  /// Stamp of the last synced edge set (Witness::edge_version).
  uint64_t synced_version() const { return synced_version_; }

 private:
  InferenceEngine* engine_;
  std::unique_ptr<EdgeSubsetView> sub_;
  std::unique_ptr<OverlayView> removed_;
  InferenceEngine::ViewId sub_id_ = -1;
  InferenceEngine::ViewId removed_id_ = -1;
  uint64_t synced_version_ = 0;
  bool synced_ = false;
};

/// The conventional serving view map over a (fixed) witness, for replaying
/// `.rrt` request traces: "full" is always the base-graph slot, and when a
/// witness is given, "sub" / "removed" are freshly registered slots for Gs
/// and G ∖ Gs whose views this object owns. The single home of the trace
/// view-name convention, shared by `robogexp serve --replay` and the
/// async-batching bench so the CLI comparison and the CI gate cannot
/// diverge.
class WitnessServeViews {
 public:
  /// `witness` may be null (base-graph-only serving); the engine and graph
  /// must outlive this object.
  WitnessServeViews(InferenceEngine* engine, const Witness* witness);
  ~WitnessServeViews();
  WitnessServeViews(const WitnessServeViews&) = delete;
  WitnessServeViews& operator=(const WitnessServeViews&) = delete;

  const std::unordered_map<std::string, InferenceEngine::ViewId>& views()
      const {
    return views_;
  }

 private:
  InferenceEngine* engine_;
  std::unique_ptr<EdgeSubsetView> sub_;
  std::unique_ptr<OverlayView> removed_;
  std::unordered_map<std::string, InferenceEngine::ViewId> views_;
};

}  // namespace robogexp

#endif  // ROBOGEXP_EXPLAIN_VERIFY_H_
