// WitnessMaintainer — incremental maintenance of verified robust witnesses
// under a stream of edge updates (the streaming extension of the paper's
// "once-for-all" serving story).
//
// The k-RCW certificate is itself an update budget: a witness verified
// robust against every (k, b)-disturbance that avoids its protected pairs
// is, after the stream applies a flip set O inside that envelope, still a
// counterfactual witness of the updated graph, and still robust at the
// reduced budget k - |O|. The maintainer exploits this with a tiered state
// machine per batch:
//
//   kUntouched   — no flip lands within the maintenance radius of any test
//                  node: zero inference, the certificate is untouched.
//   kCertified   — every affected node's outstanding flips stay within the
//                  certificate (<= k total, <= b per endpoint, no protected
//                  pair, removals only when so configured): consume budget
//                  and revalidate just the affected nodes on the cached
//                  engine — a verification, never a regeneration.
//   kResecured   — the budget is exhausted, a protected pair was flipped, an
//                  insertion arrived in removal-only mode, or revalidation
//                  failed: drop witness edges the stream deleted and
//                  re-secure only the affected nodes, starting from the
//                  existing witness (incremental expand–secure; parallel on
//                  the shared pool when configured).
//   kRegenerated — incremental re-securing failed: regenerate from scratch,
//                  the old per-snapshot cost, as a last resort.
//
// Inference flows through one long-lived InferenceEngine whose caches
// survive updates: after a batch only the (view, node) entries inside the
// touched receptive balls are invalidated (per-ball, not whole-view), so
// untouched test nodes stay warm across the whole stream. For models whose
// inference is NOT receptive-field-local (APPNP's PPR push) no per-ball
// subset is provably fresh, so Apply() escalates to full-view invalidation
// instead — served logits are bitwise-fresh for every model. Evidence rows
// (EvidenceRows) are kFullView entries too, refreshed the same way.
//
// Apply() is additionally an EVENT SOURCE for concurrent serving
// (src/serve/wait_buffer.h): before mutating anything it publishes a
// MaintenanceEpoch naming the affected set (the localizer's
// MaintenanceRadius balls, computed on the pre-update union graph), and it
// emits base-secured / round-secured / closed events as the shard
// re-secures, so a WaitBuffer can park exactly the conflicting requests and
// serve everything else THROUGH the maintenance step.
#ifndef ROBOGEXP_STREAM_MAINTAIN_H_
#define ROBOGEXP_STREAM_MAINTAIN_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/explain/robogexp.h"
#include "src/explain/verify.h"
#include "src/serve/batch_scheduler.h"
#include "src/serve/shard_registry.h"
#include "src/serve/wait_buffer.h"
#include "src/stream/localize.h"
#include "src/stream/portfolio_io.h"
#include "src/stream/update.h"

namespace robogexp {

enum class MaintainAction {
  kInitialized,
  kUntouched,
  kCertified,
  kResecured,
  kRegenerated,
};

/// Human-readable action name (CLI / bench reporting).
const char* MaintainActionName(MaintainAction action);

struct MaintainOptions {
  /// Generation knobs for re-securing / regeneration.
  GenerateOptions gen;
  /// Workers for parallel re-securing of multi-node affected sets (via
  /// ParaSecureNodes on the shared pool); 1 = sequential.
  int num_threads = 1;
  /// Refine the hop-ball localizer by PPR mass (LocalizeOptions::use_ppr).
  bool ppr_localizer = false;
  double ppr_threshold = 1e-4;
  bool verbose = false;
  /// Route the maintainer's revalidation warms and the verifier's
  /// per-contrast disturbance checks through an async BatchScheduler on the
  /// maintainer's engine: the three witness-view warms of a probe round run
  /// as concurrent flushes, and any other demand sharing the engine (e.g. a
  /// serving front) coalesces with maintenance demand. Reports are
  /// bit-identical with and without.
  bool async_batching = false;
  BatchSchedulerOptions scheduler;
  /// When non-empty, Apply() checkpoints the full portfolio state to this
  /// path (atomically, via SavePortfolio) at the end of every
  /// `checkpoint_every_batches`-th successful batch — the crash-recovery
  /// anchor: a killed process restarts from the last published checkpoint
  /// and replays only the gap.
  std::string checkpoint_path;
  int checkpoint_every_batches = 1;
};

/// Per-batch maintenance outcome.
struct MaintainReport {
  MaintainAction action = MaintainAction::kUntouched;
  /// Updates applied / skipped as no-ops by ApplyUpdateBatch.
  int applied = 0;
  int rejected = 0;
  /// Test nodes whose maintenance ball a flip touched.
  int affected_tests = 0;
  /// Stale nodes invalidated in the engine caches (the touched-ball size).
  int ball_nodes = 0;
  /// Nodes whose witness coverage was re-secured / newly given up on.
  std::vector<NodeId> resecured;
  std::vector<NodeId> unsecured;
  /// True when every affected node is covered again (unsecurable nodes are
  /// excluded — they are reported above instead).
  bool ok = true;
  /// Engine work performed by this maintenance step (model invocations /
  /// cache hits, the same accounting as GenerateStats).
  int inference_calls = 0;
  int64_t cache_hits = 0;
  double seconds = 0.0;
};

class WitnessMaintainer {
 public:
  /// `graph` must be the same object `cfg.graph` points to (the maintainer
  /// mutates it when applying batches); both outlive the maintainer.
  WitnessMaintainer(Graph* graph, const WitnessConfig& cfg,
                    const MaintainOptions& opts = {});

  /// Generates the initial witness portfolio on the maintainer's engine.
  MaintainReport Initialize();

  /// Adopts an externally generated witness (e.g. loaded from disk) and
  /// revalidates it at full budget; nodes that fail are re-secured.
  MaintainReport Adopt(const Witness& witness);

  /// Snapshot of the full tiered state at the current batch boundary
  /// (witness with protected pairs, unsecured set, per-node outstanding
  /// flips, graph mutation_version + fingerprints) — everything AdoptState
  /// needs to resume in another process.
  PortfolioState ExportState() const;

  /// Restores a checkpointed state against the live graph/model:
  ///   - model fingerprint mismatch, a state whose mutation_version is AHEAD
  ///     of the live graph, a same-version state whose graph fingerprint
  ///     differs, or state entries naming non-test nodes → InvalidArgument
  ///     (the checkpoint does not belong to this serving setup; adopting it
  ///     could produce silently wrong verdicts).
  ///   - exact match (same mutation_version + graph fingerprint) → verbatim
  ///     zero-inference restore: the certificate budgets survive the restart.
  ///   - state BEHIND the live graph (the stream moved on past the
  ///     checkpoint) → graceful degradation to the Adopt() path: the witness
  ///     is revalidated at full budget and failing nodes re-secured, so the
  ///     result is sound, just not free.
  StatusOr<MaintainReport> AdoptState(const PortfolioState& state);

  /// Writes ExportState() to `path` atomically (SavePortfolio).
  Status Checkpoint(const std::string& path) const;

  /// Applies `batch` to the graph and maintains the witness. Fails (without
  /// touching the graph) when the batch itself is malformed, or when the
  /// graph was mutated behind the maintainer's back.
  StatusOr<MaintainReport> Apply(const UpdateBatch& batch);

  const Witness& witness() const { return witness_; }
  const WitnessConfig& config() const { return cfg_; }

  /// Test nodes currently without witness coverage (sorted).
  std::vector<NodeId> unsecured() const;

  /// Remaining certified disturbance budget of test node v: k minus the
  /// flips outstanding in v's maintenance ball since v was last secured
  /// (0 when the node's outstanding set already left the certificate).
  int RemainingBudget(NodeId v) const;

  /// The long-lived engine (its stats() delta measures maintenance work;
  /// parallel re-secure work is reported in MaintainReport, not here).
  InferenceEngine& engine() { return engine_; }

  /// The async batching front over engine(), or nullptr when
  /// MaintainOptions::async_batching is off.
  BatchScheduler* scheduler() { return scheduler_.get(); }

  /// The maintainer's live witness-view slots (Gs as "sub", G ∖ Gs as
  /// "removed"). The slot ids are stable across maintenance syncs — Sync()
  /// rebinds the same ids — so a serving front can hold them for the
  /// maintainer's lifetime. Valid after Initialize()/Adopt().
  const WitnessEngineViews& views() const { return views_; }

  /// Subscribes `listener` to Apply()'s epoch events (Opened →
  /// BaseSecured → RoundSecured* → Closed, emitted on the Apply thread).
  /// The listener must stay registered for complete epochs only: add and
  /// remove it while no Apply() is in flight.
  void AddListener(MaintenanceListener* listener);
  void RemoveListener(MaintenanceListener* listener);

 private:
  /// True when v's outstanding flips are inside the k-RCW certificate.
  bool WithinCertificate(
      NodeId v, const std::unordered_set<uint64_t>& protected_keys) const;

  /// Rebuilds the witness without edges the stream deleted from the graph
  /// (protected pairs and nodes survive).
  void PruneDeletedWitnessEdges();

  /// Re-secures `nodes` (sequential or parallel), returns failures (sorted).
  std::vector<NodeId> Resecure(const std::vector<NodeId>& nodes,
                               GenerateStats* stats);

  /// Re-secures `escalate` incrementally, then CW-probes the covered nodes
  /// whose receptive ball a newly added witness edge touches and re-secures
  /// demotions, looping to a fixpoint (witness growth can perturb another
  /// node's factual check — the merge hazard ParaGenerateRcw's coordinator
  /// probes for; the pass cap mirrors GenerateRcw's). Secured nodes are
  /// erased from outstanding_/unsecured_ and added to *recovered; nodes
  /// that could not be secured — or were still demoted at the cap — are
  /// added to *failed.
  void ResecureWithGrowthProbes(const std::vector<NodeId>& escalate,
                                GenerateStats* stats,
                                std::unordered_set<NodeId>* recovered,
                                std::unordered_set<NodeId>* failed);

  /// Warms the full / Gs / G ∖ Gs view slots for `nodes` — pipelined through
  /// the scheduler when async batching is on, sequential warms otherwise.
  void WarmProbeViews(const std::vector<NodeId>& nodes);

  /// Verifies `nodes` at full budget k on the shared engine; returns the
  /// nodes that failed (each failure re-checks the remaining set, so one bad
  /// node does not condemn the others).
  std::vector<NodeId> VerifyNodesAtFullBudget(std::vector<NodeId> nodes);

  /// Event emission to the registered listeners (snapshot under
  /// listeners_mu_, callbacks invoked outside it). Opened may block inside
  /// a listener (the WaitBuffer's reverse barrier); the others are cheap.
  void EmitOpened(const MaintenanceEpoch& epoch);
  void EmitBaseSecured(uint64_t id);
  void EmitRoundSecured(uint64_t id, const std::vector<NodeId>& nodes);
  void EmitClosed(uint64_t id);

  Graph* graph_;
  WitnessConfig cfg_;
  MaintainOptions opts_;
  InferenceEngine engine_;
  WitnessEngineViews views_;
  /// Must stay declared after engine_ and views_: its destructor drains
  /// pending batches through both, so they have to be destroyed later
  /// (i.e. declared earlier).
  std::unique_ptr<BatchScheduler> scheduler_;
  Witness witness_;
  std::unordered_set<NodeId> unsecured_;
  /// Per test node: flips currently outstanding against the graph state the
  /// node was last secured on (toggled — a flip applied twice cancels).
  std::unordered_map<NodeId, std::unordered_map<uint64_t, Edge>> outstanding_;
  uint64_t known_graph_version_ = 0;
  bool initialized_ = false;
  /// Batches applied since the last MaintainOptions::checkpoint_path write.
  int batches_since_checkpoint_ = 0;
  /// Epoch plumbing: monotonic ids, the id of the epoch the current
  /// Apply() opened (0 outside an epoch), and the subscribed listeners.
  uint64_t next_epoch_id_ = 0;
  uint64_t open_epoch_id_ = 0;
  std::mutex listeners_mu_;
  std::vector<MaintenanceListener*> listeners_;
};

/// Registers `maintainer`'s graph as graph `graph_id` in `registry`, served
/// by the maintainer's own engine (and scheduler, when async batching is
/// on): serving traffic and maintenance demand coalesce on ONE engine, and
/// the maintained witness's Gs / G ∖ Gs slots are served under the
/// conventional trace view names "sub" / "removed" (the slot ids stay
/// stable across maintenance syncs, so the serving binding survives witness
/// mutation). The maintainer must be initialized (Initialize()/Adopt())
/// first and must outlive the registry.
///
/// Serving is legal CONCURRENTLY with Apply(): the shard is wired with a
/// WaitBuffer subscribed to the maintainer's epoch events, so requests
/// whose node set intersects an in-flight maintenance epoch park and are
/// woken by the epoch's completion events (full-view requests at
/// base-secured, witness-view requests at closed), while untouched traffic
/// proceeds through the scheduler as if no maintenance were running. The
/// invalidate-before-wake ordering makes every served reply — parked or
/// not — bitwise-identical to a serialized serve-after-apply, for
/// receptive-field-local models via per-ball invalidation and for
/// adaptive-locality models (APPNP) via the full-view escalation.
/// Teardown: destroy the registry while no Apply() is in flight; the shard
/// detaches its buffer from the maintainer on destruction.
StatusOr<GraphShard*> ServeMaintained(ShardRegistry* registry, int graph_id,
                                      WitnessMaintainer* maintainer);

/// Restart form: first restores `state` into the (uninitialized) maintainer
/// via AdoptState — fingerprint/version validation included — then registers
/// it for serving exactly as above. The shard starts serving the recovered
/// portfolio without a single regeneration inference when the checkpoint
/// matches the live graph exactly.
StatusOr<GraphShard*> ServeMaintained(ShardRegistry* registry, int graph_id,
                                      WitnessMaintainer* maintainer,
                                      const PortfolioState& state);

}  // namespace robogexp

#endif  // ROBOGEXP_STREAM_MAINTAIN_H_
