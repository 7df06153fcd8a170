#include "src/stream/maintain.h"

#include <algorithm>
#include <cstdio>

#include "src/explain/para.h"
#include "src/util/timer.h"

namespace robogexp {

const char* MaintainActionName(MaintainAction action) {
  switch (action) {
    case MaintainAction::kInitialized:
      return "initialized";
    case MaintainAction::kUntouched:
      return "untouched";
    case MaintainAction::kCertified:
      return "certified";
    case MaintainAction::kResecured:
      return "resecured";
    case MaintainAction::kRegenerated:
      return "regenerated";
  }
  return "unknown";
}

WitnessMaintainer::WitnessMaintainer(Graph* graph, const WitnessConfig& cfg,
                                     const MaintainOptions& opts)
    : graph_(graph),
      cfg_(cfg),
      opts_(opts),
      engine_(cfg.model, graph, EngineOptionsFor(opts.gen)),
      views_(&engine_) {
  RCW_CHECK(graph != nullptr);
  RCW_CHECK_MSG(cfg.graph == graph,
                "WitnessMaintainer: cfg.graph must be the maintained graph");
  RCW_CHECK(cfg_.Valid());
  if (opts_.async_batching) {
    scheduler_ = std::make_unique<BatchScheduler>(&engine_, opts_.scheduler);
  }
}

MaintainReport WitnessMaintainer::Initialize() {
  Timer timer;
  const EngineStats before = engine_.stats();
  const GenerateResult gen = GenerateRcw(cfg_, opts_.gen, &engine_);
  witness_ = gen.witness;
  unsecured_.clear();
  unsecured_.insert(gen.unsecured.begin(), gen.unsecured.end());
  outstanding_.clear();
  known_graph_version_ = graph_->mutation_version();
  initialized_ = true;
  // Bind the witness-view slots now rather than lazily: a serving front
  // (ServeMaintained) may register them before the first maintenance round.
  views_.Sync(witness_);

  MaintainReport report;
  report.action = MaintainAction::kInitialized;
  report.unsecured = gen.unsecured;
  report.ok = gen.unsecured.empty() && !gen.trivial;
  const EngineStats d = engine_.stats() - before;
  report.inference_calls = static_cast<int>(d.model_invocations);
  report.cache_hits = d.cache_hits;
  report.seconds = timer.Seconds();
  return report;
}

MaintainReport WitnessMaintainer::Adopt(const Witness& witness) {
  Timer timer;
  const EngineStats before = engine_.stats();
  witness_ = witness;
  for (NodeId v : cfg_.test_nodes) witness_.AddNode(v);
  unsecured_.clear();
  outstanding_.clear();
  known_graph_version_ = graph_->mutation_version();
  initialized_ = true;

  MaintainReport report;
  report.action = MaintainAction::kInitialized;

  // The adopted witness may predate the graph (e.g. loaded from disk after
  // the feed moved on): shed phantom edges *before* verifying, so the
  // witness ⊆ graph invariant holds from the first moment.
  PruneDeletedWitnessEdges();

  // Full-budget revalidation; nodes the adopted witness does not cover get
  // re-secured (with the growth-probe fixpoint, so repairing one node
  // cannot silently perturb an already-verified one), and only then given
  // up on.
  std::vector<NodeId> failing = VerifyNodesAtFullBudget(cfg_.test_nodes);
  if (!failing.empty()) {
    GenerateStats gstats;
    std::unordered_set<NodeId> recovered, failed;
    ResecureWithGrowthProbes(failing, &gstats, &recovered, &failed);
    unsecured_.insert(failed.begin(), failed.end());
    report.resecured.assign(recovered.begin(), recovered.end());
    std::sort(report.resecured.begin(), report.resecured.end());
    report.inference_calls += gstats.inference_calls;
    report.cache_hits += gstats.cache_hits;
  }
  report.unsecured.assign(unsecured_.begin(), unsecured_.end());
  std::sort(report.unsecured.begin(), report.unsecured.end());
  report.ok = unsecured_.empty();
  // As in Initialize(): bind the serve-able witness-view slots eagerly.
  views_.Sync(witness_);
  const EngineStats d = engine_.stats() - before;
  report.inference_calls += static_cast<int>(d.model_invocations);
  report.cache_hits += d.cache_hits;
  report.seconds = timer.Seconds();
  return report;
}

PortfolioState WitnessMaintainer::ExportState() const {
  RCW_CHECK_MSG(initialized_,
                "ExportState: Initialize()/Adopt() must run first");
  RCW_CHECK_MSG(graph_->mutation_version() == known_graph_version_,
                "ExportState: graph mutated outside the maintainer");
  PortfolioState state;
  state.witness = witness_;
  state.unsecured.assign(unsecured_.begin(), unsecured_.end());
  std::sort(state.unsecured.begin(), state.unsecured.end());
  for (const auto& [v, flips] : outstanding_) {
    std::vector<Edge>& out = state.outstanding[v];
    out.reserve(flips.size());
    for (const auto& [key, e] : flips) out.push_back(e);
    std::sort(out.begin(), out.end());
  }
  state.mutation_version = known_graph_version_;
  state.graph_fingerprint = GraphFingerprint(*graph_);
  state.model_fingerprint = ModelFingerprint(*cfg_.model);
  return state;
}

StatusOr<MaintainReport> WitnessMaintainer::AdoptState(
    const PortfolioState& state) {
  if (state.model_fingerprint != ModelFingerprint(*cfg_.model)) {
    return Status::InvalidArgument(
        "AdoptState: model fingerprint mismatch — the portfolio was "
        "certified against different weights than the serving model");
  }
  if (state.mutation_version > graph_->mutation_version()) {
    return Status::InvalidArgument(
        "AdoptState: portfolio mutation_version " +
        std::to_string(state.mutation_version) +
        " is ahead of the live graph (" +
        std::to_string(graph_->mutation_version()) +
        ") — fast-forward the graph through the update stream first");
  }
  const std::unordered_set<NodeId> tests(cfg_.test_nodes.begin(),
                                         cfg_.test_nodes.end());
  for (NodeId v : state.unsecured) {
    if (tests.count(v) == 0) {
      return Status::InvalidArgument(
          "AdoptState: unsecured node " + std::to_string(v) +
          " is not a test node of this configuration");
    }
  }
  for (const auto& [v, flips] : state.outstanding) {
    if (tests.count(v) == 0) {
      return Status::InvalidArgument(
          "AdoptState: outstanding budget for node " + std::to_string(v) +
          ", which is not a test node of this configuration");
    }
  }
  if (state.mutation_version < graph_->mutation_version()) {
    // The stream moved on past this checkpoint (e.g. the process was down
    // while a peer kept applying): the certificate budgets are not
    // transferable, but the witness is still the best warm start available.
    // Degrade to the full-budget revalidation Adopt() path — sound, never
    // a silently stale verdict, just not free.
    return Adopt(state.witness);
  }
  if (state.graph_fingerprint != GraphFingerprint(*graph_)) {
    return Status::InvalidArgument(
        "AdoptState: graph fingerprint mismatch at equal mutation_version — "
        "the portfolio was certified against a different graph");
  }

  // Exact match: restore verbatim. The portfolio was exported at this very
  // graph state under this very model, so every certificate (and every
  // outstanding budget charge) is still exactly valid — zero inference.
  Timer timer;
  witness_ = state.witness;
  unsecured_.clear();
  unsecured_.insert(state.unsecured.begin(), state.unsecured.end());
  outstanding_.clear();
  for (const auto& [v, flips] : state.outstanding) {
    auto& out = outstanding_[v];
    for (const Edge& e : flips) out.emplace(e.Key(), e);
  }
  known_graph_version_ = graph_->mutation_version();
  initialized_ = true;
  views_.Sync(witness_);

  MaintainReport report;
  report.action = MaintainAction::kInitialized;
  report.unsecured = state.unsecured;
  report.ok = unsecured_.empty();
  report.seconds = timer.Seconds();
  return report;
}

Status WitnessMaintainer::Checkpoint(const std::string& path) const {
  if (!initialized_) {
    return Status::FailedPrecondition(
        "Checkpoint: Initialize()/Adopt() must run before Checkpoint()");
  }
  return SavePortfolio(ExportState(), path);
}

std::vector<NodeId> WitnessMaintainer::unsecured() const {
  std::vector<NodeId> out(unsecured_.begin(), unsecured_.end());
  std::sort(out.begin(), out.end());
  return out;
}

int WitnessMaintainer::RemainingBudget(NodeId v) const {
  if (!WithinCertificate(v, witness_.ProtectedKeys())) return 0;
  auto it = outstanding_.find(v);
  const int spent =
      it == outstanding_.end() ? 0 : static_cast<int>(it->second.size());
  return std::max(0, cfg_.k - spent);
}

bool WitnessMaintainer::WithinCertificate(
    NodeId v, const std::unordered_set<uint64_t>& protected_keys) const {
  auto it = outstanding_.find(v);
  if (it == outstanding_.end()) return true;
  const auto& out = it->second;
  if (static_cast<int>(out.size()) > cfg_.k) return false;
  std::unordered_map<NodeId, int> load;
  for (const auto& [key, e] : out) {
    // Flipping a witness edge or protected pair is outside every
    // disturbance the certificate quantified over.
    if (protected_keys.count(key) > 0) return false;
    // A net insertion (pair now present that was absent when v was secured)
    // is only certified in full flip mode.
    if (cfg_.disturbance == DisturbanceModel::kRemovalOnly &&
        graph_->HasEdge(e.u, e.v)) {
      return false;
    }
    if (++load[e.u] > cfg_.local_budget || ++load[e.v] > cfg_.local_budget) {
      return false;
    }
  }
  return true;
}

void WitnessMaintainer::PruneDeletedWitnessEdges() {
  bool stale = false;
  for (const Edge& e : witness_.Edges()) {
    if (!graph_->HasEdge(e.u, e.v)) {
      stale = true;
      break;
    }
  }
  if (!stale) return;
  // Rebuild without the deleted edges (a fresh edge_version, so the engine's
  // witness-view slots resync and drop their logits on the next use).
  Witness pruned;
  for (NodeId u : witness_.Nodes()) pruned.AddNode(u);
  for (const Edge& e : witness_.Edges()) {
    if (graph_->HasEdge(e.u, e.v)) pruned.AddEdge(e.u, e.v);
  }
  for (uint64_t key : witness_.protected_pair_keys()) {
    pruned.AddProtectedPair(PairKeyFirst(key), PairKeySecond(key));
  }
  witness_ = std::move(pruned);
}

std::vector<NodeId> WitnessMaintainer::Resecure(
    const std::vector<NodeId>& nodes, GenerateStats* stats) {
  if (opts_.num_threads > 1 && nodes.size() > 1) {
    // ParaSecureNodes reports its own engines' work through *stats.
    return ParaSecureNodes(cfg_, nodes, opts_.gen, opts_.num_threads,
                           &witness_, stats);
  }
  const detail::NodeWorkScope scope;  // unrestricted
  std::vector<NodeId> failed;
  WarmEvidence(cfg_, &engine_, nodes);
  for (NodeId v : nodes) {
    if (!detail::SecureNode(cfg_, v, opts_.gen, scope, &engine_, &views_,
                            &witness_, stats)) {
      failed.push_back(v);
    }
  }
  std::sort(failed.begin(), failed.end());
  return failed;
}

void WitnessMaintainer::ResecureWithGrowthProbes(
    const std::vector<NodeId>& escalate, GenerateStats* stats,
    std::unordered_set<NodeId>* recovered, std::unordered_set<NodeId>* failed) {
  std::vector<NodeId> round = escalate;
  for (int pass = 0; pass < 4 && !round.empty(); ++pass) {
    const std::unordered_set<uint64_t> edges_before = witness_.edge_keys();
    for (NodeId v : Resecure(round, stats)) failed->insert(v);
    std::vector<NodeId> secured_this_pass;
    for (NodeId v : round) {
      if (failed->count(v) > 0) continue;
      outstanding_.erase(v);  // secured against the current graph
      unsecured_.erase(v);
      recovered->insert(v);
      secured_this_pass.push_back(v);
    }
    if (!secured_this_pass.empty()) {
      // One completion event per re-secure pass (a no-op outside an
      // epoch, e.g. on the Adopt() path).
      EmitRoundSecured(open_epoch_id_, secured_this_pass);
    }
    round.clear();
    // Which covered nodes can the newly added witness edges perturb?
    // Witness growth does not change the graph, but it changes every
    // landscape a verdict is built from — the factual/counterfactual views
    // AND the adversary's candidate space (grown edges and protected pairs
    // are excluded from disturbances) — so the hazard radius is the full
    // maintenance radius, and the probe must re-verify ROBUSTNESS, not just
    // the CW conditions: in flip mode especially, growing the witness for
    // one node can hand the insertion adversary a counterexample against
    // another node whose CW probe still passes (caught by the randomized
    // flip-stream equivalence suite).
    std::vector<Edge> grown;
    for (uint64_t key : witness_.edge_keys()) {
      if (edges_before.count(key) == 0) {
        grown.emplace_back(PairKeyFirst(key), PairKeySecond(key));
      }
    }
    if (grown.empty()) break;
    std::sort(grown.begin(), grown.end());
    std::vector<NodeId> covered;
    for (NodeId v : cfg_.test_nodes) {
      if (unsecured_.count(v) == 0 && failed->count(v) == 0) {
        covered.push_back(v);
      }
    }
    LocalizeOptions popts;
    popts.radius = MaintenanceRadius(cfg_);
    const AffectedSet touched =
        LocalizeFlips(engine_.full_view(), grown, covered, popts);
    if (touched.test_nodes.empty()) break;
    views_.Sync(witness_);
    WarmProbeViews(touched.test_nodes);
    round = VerifyNodesAtFullBudget(touched.test_nodes);
  }
  // Nodes still demoted when the pass cap ran out count as lost coverage.
  for (NodeId v : round) {
    failed->insert(v);
    recovered->erase(v);
  }
}

void WitnessMaintainer::WarmProbeViews(const std::vector<NodeId>& nodes) {
  if (scheduler_ != nullptr) {
    // Pipelined: the three view flushes run concurrently on the pool, and
    // any other demand sharing the engine coalesces with them.
    scheduler_->WarmAll({{InferenceEngine::kFullView, nodes},
                         {views_.sub_id(), nodes},
                         {views_.removed_id(), nodes}});
    return;
  }
  engine_.Warm(InferenceEngine::kFullView, nodes);
  engine_.Warm(views_.sub_id(), nodes);
  engine_.Warm(views_.removed_id(), nodes);
}

void WitnessMaintainer::AddListener(MaintenanceListener* listener) {
  RCW_CHECK(listener != nullptr);
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.push_back(listener);
}

void WitnessMaintainer::RemoveListener(MaintenanceListener* listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  std::erase(listeners_, listener);
}

void WitnessMaintainer::EmitOpened(const MaintenanceEpoch& epoch) {
  std::vector<MaintenanceListener*> snapshot;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    snapshot = listeners_;
  }
  // Outside listeners_mu_: Opened blocks inside the WaitBuffer until the
  // conflicting in-flight requests drain, and holding the registration
  // lock through that would deadlock any concurrent (un)subscribe.
  for (MaintenanceListener* l : snapshot) l->EpochOpened(epoch);
}

void WitnessMaintainer::EmitBaseSecured(uint64_t id) {
  std::vector<MaintenanceListener*> snapshot;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    snapshot = listeners_;
  }
  for (MaintenanceListener* l : snapshot) l->EpochBaseSecured(id);
}

void WitnessMaintainer::EmitRoundSecured(uint64_t id,
                                         const std::vector<NodeId>& nodes) {
  if (id == 0) return;  // not inside an epoch (Initialize/Adopt paths)
  std::vector<MaintenanceListener*> snapshot;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    snapshot = listeners_;
  }
  for (MaintenanceListener* l : snapshot) l->EpochRoundSecured(id, nodes);
}

void WitnessMaintainer::EmitClosed(uint64_t id) {
  std::vector<MaintenanceListener*> snapshot;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    snapshot = listeners_;
  }
  for (MaintenanceListener* l : snapshot) l->EpochClosed(id);
}

std::vector<NodeId> WitnessMaintainer::VerifyNodesAtFullBudget(
    std::vector<NodeId> nodes) {
  std::vector<NodeId> failed;
  WitnessConfig sub = cfg_;
  while (!nodes.empty()) {
    sub.test_nodes = nodes;
    const VerifyResult r = VerifyRcw(sub, witness_, &engine_, scheduler_.get());
    if (r.ok) break;
    const size_t before = nodes.size();
    std::erase(nodes, r.failed_node);
    if (nodes.size() == before) {
      // Defensive: a failure not attributed to a specific remaining node
      // escalates everything rather than looping.
      failed.insert(failed.end(), nodes.begin(), nodes.end());
      break;
    }
    failed.push_back(r.failed_node);
  }
  return failed;
}

StatusOr<MaintainReport> WitnessMaintainer::Apply(const UpdateBatch& batch) {
  if (!initialized_) {
    return Status::FailedPrecondition(
        "WitnessMaintainer: Initialize() or Adopt() must run before Apply()");
  }
  if (graph_->mutation_version() != known_graph_version_) {
    return Status::FailedPrecondition(
        "WitnessMaintainer: graph mutated outside the maintainer");
  }
  Timer timer;
  const EngineStats before = engine_.stats();
  MaintainReport report;

  // Phase 1 — plan: validate and compute the batch's net effect WITHOUT
  // touching the graph, so the epoch below can be published before any
  // reader-visible mutation.
  auto plan = PlanUpdateBatch(*graph_, batch);
  RCW_RETURN_IF_ERROR(plan.status());
  report.applied = static_cast<int>(batch.size()) - plan.value().rejected;
  report.rejected = plan.value().rejected;

  const std::vector<Edge> flips = plan.value().Flips();
  auto finish = [&](MaintainAction action) -> StatusOr<MaintainReport> {
    report.action = action;
    // Leave the witness-view slots pointing at the *final* witness of this
    // batch: re-securing can mutate the witness after the last mid-batch
    // sync, and a serving front (ServeMaintained) reads the slots between
    // batches. Version-checked — a no-op unless the edge set changed.
    views_.Sync(witness_);
    // Close the epoch AFTER the final sync, so witness-view requests woken
    // by Closed read the rebuilt view slots.
    if (open_epoch_id_ != 0) {
      EmitClosed(open_epoch_id_);
      open_epoch_id_ = 0;
    }
    const EngineStats d = engine_.stats() - before;
    report.inference_calls += static_cast<int>(d.model_invocations);
    report.cache_hits += d.cache_hits;
    // Checkpoint at the batch boundary, after the views are final: the file
    // that lands on disk describes exactly the state a restart will serve.
    if (!opts_.checkpoint_path.empty() &&
        ++batches_since_checkpoint_ >=
            std::max(1, opts_.checkpoint_every_batches)) {
      RCW_RETURN_IF_ERROR(Checkpoint(opts_.checkpoint_path));
      batches_since_checkpoint_ = 0;
    }
    report.seconds = timer.Seconds();
    return report;
  };
  if (flips.empty()) return finish(MaintainAction::kUntouched);

  // Phase 2 — localize, still pre-commit: which receptive balls will the
  // batch touch? Distances are measured on the union graph (pre-update
  // base, which still holds every to-be-deleted edge, overlaid with the
  // to-be-inserted ones), so a deletion still reaches everything it used
  // to be close to and an insertion everything it is about to reach.
  const OverlayView union_view(&engine_.full_view(), plan.value().inserted);
  LocalizeOptions lopts;
  lopts.radius = MaintenanceRadius(cfg_);
  lopts.use_ppr = opts_.ppr_localizer;
  lopts.ppr_threshold = opts_.ppr_threshold;
  lopts.ppr = cfg_.ppr;
  const AffectedSet affected =
      LocalizeFlips(union_view, flips, cfg_.test_nodes, lopts);
  report.affected_tests = static_cast<int>(affected.test_nodes.size());
  report.ball_nodes = static_cast<int>(affected.ball.size());

  // Phase 3 — publish the epoch BEFORE mutating. EmitOpened may block (a
  // WaitBuffer drains conflicting in-flight serving requests); once it
  // returns, conflicting traffic is parked and the commit is invisible to
  // every admitted reader. Non-receptive-local models (APPNP) get a
  // whole-graph epoch: a base update can move their logits anywhere.
  const bool receptive_local = cfg_.model->InferenceIsReceptiveLocal();
  MaintenanceEpoch epoch;
  epoch.id = ++next_epoch_id_;
  epoch.ball = affected.ball;
  epoch.whole_graph = !receptive_local;
  open_epoch_id_ = epoch.id;
  EmitOpened(epoch);

  // Phase 4 — commit and invalidate, then announce base-secured. The
  // ordering is the serving-correctness invariant: caches are invalidated
  // BEFORE EmitBaseSecured wakes parked full-view requests, so woken reads
  // can only miss into post-update inference.
  known_graph_version_ = CommitUpdatePlan(graph_, plan.value());
  if (receptive_local) {
    // Targeted invalidation: only the touched balls go cold. The witness
    // subgraph view reads no base-graph edges, so it stays warm entirely.
    engine_.InvalidateNodes(InferenceEngine::kFullView, affected.ball);
    engine_.InvalidateNodes(views_.removed_id(), affected.ball);
    engine_.InvalidateOverlayNodes(affected.ball);
  } else {
    // Full-view escalation: no per-ball subset of an adaptive-locality
    // model's cache is provably fresh after a base update, so drop the
    // base-reading slots and every content-addressed overlay. The witness
    // subgraph slot still reads no base edges and stays warm.
    engine_.Invalidate(InferenceEngine::kFullView);
    engine_.Invalidate(views_.removed_id());
    engine_.InvalidateOverlays();
  }
  EmitBaseSecured(epoch.id);

  // The certificate is judged against the protected pairs as of when the
  // nodes were secured — captured before any pruning below.
  const auto protected_keys = witness_.ProtectedKeys();

  // Keep the witness ⊆ graph invariant even when a deleted witness edge
  // lies outside every test node's ball (then it influenced no verdict, so
  // pruning alone — without re-securing — is sound; in-ball deletions hit
  // the protected-pair check and escalate to re-secure regardless).
  for (const Edge& e : plan.value().deleted) {
    if (witness_.HasEdge(e.u, e.v)) {
      PruneDeletedWitnessEdges();
      break;
    }
  }

  if (affected.test_nodes.empty()) return finish(MaintainAction::kUntouched);

  // Charge each affected node for the flips inside its own ball (toggled:
  // re-flipping a pair restores the secured state and refunds the budget).
  for (size_t i = 0; i < affected.test_nodes.size(); ++i) {
    auto& out = outstanding_[affected.test_nodes[i]];
    for (size_t fi : affected.flips_per_test[i]) {
      const Edge& e = flips[fi];
      const uint64_t key = e.Key();
      if (out.erase(key) == 0) out.emplace(key, e);
    }
  }

  // Tier the affected nodes: inside the certificate -> cheap revalidation;
  // outside (or currently uncovered) -> incremental re-secure.
  std::vector<NodeId> certified, escalate;
  for (NodeId v : affected.test_nodes) {
    if (unsecured_.count(v) > 0) {
      // The stream may have made a previously unsecurable node securable;
      // retry it on the re-secure path.
      escalate.push_back(v);
    } else if (WithinCertificate(v, protected_keys)) {
      certified.push_back(v);
    } else {
      escalate.push_back(v);
    }
  }

  // Certified tier: the k-RCW certificate guarantees the witness is still a
  // CW here; revalidate at full budget on the warm engine, escalating any
  // node the (heuristic, for non-APPNP) adversary can now break.
  const std::vector<NodeId> demoted = VerifyNodesAtFullBudget(certified);
  for (NodeId v : demoted) escalate.push_back(v);
  if (!certified.empty()) {
    std::vector<NodeId> revalidated = certified;
    for (NodeId v : demoted) std::erase(revalidated, v);
    if (!revalidated.empty()) {
      EmitRoundSecured(open_epoch_id_, revalidated);
    }
  }

  if (escalate.empty()) return finish(MaintainAction::kCertified);

  // Re-secure tier: shed deleted witness edges, then expand-secure only the
  // escalated nodes starting from the current witness (with the
  // growth-probe fixpoint — see ResecureWithGrowthProbes).
  PruneDeletedWitnessEdges();
  GenerateStats gstats;
  std::sort(escalate.begin(), escalate.end());
  std::unordered_set<NodeId> recovered_set, failed_set;
  ResecureWithGrowthProbes(escalate, &gstats, &recovered_set, &failed_set);
  std::vector<NodeId> failed(failed_set.begin(), failed_set.end());
  std::sort(failed.begin(), failed.end());
  report.resecured.assign(recovered_set.begin(), recovered_set.end());
  std::sort(report.resecured.begin(), report.resecured.end());
  report.inference_calls += gstats.inference_calls;
  report.cache_hits += gstats.cache_hits;
  if (opts_.verbose) {
    std::printf("[maintain] re-secured %zu nodes (%zu failed)\n",
                recovered_set.size(), failed_set.size());
  }

  // Any node the warm-started re-secure could not cover escalates to the
  // scratch last resort — previously-covered (lost coverage) and retried
  // previously-uncovered nodes alike. The warm start can be boxed in by
  // inherited witness structure where a fresh search is not (the randomized
  // flip-stream suite catches exactly this on insertion-heavy streams), and
  // regeneration IS the from-scratch baseline, so after this escalation the
  // maintained portfolio never covers less than regenerating the snapshot.
  // Regeneration only fires on batches whose flips actually touched a
  // failing node: untouched unsecurable nodes are never retried.
  for (NodeId v : failed) outstanding_.erase(v);
  if (failed.empty()) {
    report.unsecured = failed;
    return finish(MaintainAction::kResecured);
  }

  // Last resort: regenerate the whole portfolio from scratch.
  const GenerateResult gen = GenerateRcw(cfg_, opts_.gen, &engine_);
  witness_ = gen.witness;
  outstanding_.clear();
  unsecured_.clear();
  unsecured_.insert(gen.unsecured.begin(), gen.unsecured.end());
  report.unsecured = gen.unsecured;
  report.ok = report.unsecured.empty();
  return finish(MaintainAction::kRegenerated);
}

StatusOr<GraphShard*> ServeMaintained(ShardRegistry* registry, int graph_id,
                                      WitnessMaintainer* maintainer) {
  if (registry == nullptr || maintainer == nullptr) {
    return Status::InvalidArgument("ServeMaintained: null registry/maintainer");
  }
  const WitnessConfig& cfg = maintainer->config();
  if (maintainer->views().sub_id() < 0) {
    return Status::FailedPrecondition(
        "ServeMaintained: maintainer has no witness views yet — call "
        "Initialize() or Adopt() first");
  }
  auto shard = registry->RegisterExternal(graph_id, cfg.graph, cfg.model,
                                          &maintainer->engine(),
                                          maintainer->scheduler());
  RCW_RETURN_IF_ERROR(shard.status());
  shard.value()->RegisterView("sub", maintainer->views().sub_id());
  shard.value()->RegisterView("removed", maintainer->views().removed_id());

  // Admission control: route the shard's Submit() through a WaitBuffer
  // subscribed to the maintainer's epoch events, so serving is legal
  // concurrently with Apply(). The executor targets the maintainer's
  // engine/scheduler, which outlive both shard and buffer.
  InferenceEngine* engine = &maintainer->engine();
  BatchScheduler* scheduler = maintainer->scheduler();
  auto buffer = std::make_unique<WaitBuffer>(
      [engine, scheduler](InferenceEngine::ViewId view,
                          const std::vector<NodeId>& nodes, bool use_scheduler,
                          WaitBuffer::CompletionFn done) {
        if (scheduler != nullptr && use_scheduler) {
          return scheduler->Submit(view, nodes, std::move(done));
        }
        engine->Warm(view, nodes);
        done();
        return BatchScheduler::Ticket();
      });
  maintainer->AddListener(buffer.get());
  buffer->SetDetach([maintainer, listener = buffer.get()]() {
    maintainer->RemoveListener(listener);
  });
  shard.value()->AttachWaitBuffer(std::move(buffer));
  return shard.value();
}

StatusOr<GraphShard*> ServeMaintained(ShardRegistry* registry, int graph_id,
                                      WitnessMaintainer* maintainer,
                                      const PortfolioState& state) {
  if (registry == nullptr || maintainer == nullptr) {
    return Status::InvalidArgument("ServeMaintained: null registry/maintainer");
  }
  const auto adopted = maintainer->AdoptState(state);
  RCW_RETURN_IF_ERROR(adopted.status());
  return ServeMaintained(registry, graph_id, maintainer);
}

}  // namespace robogexp
