#include "src/explain/verify.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "src/gnn/appnp.h"
#include "src/serve/batch_scheduler.h"
#include "src/util/thread_pool.h"

namespace robogexp {

namespace {

/// Contrast classes for node v, strongest runner-up first.
std::vector<Label> ContrastClasses(const WitnessConfig& cfg,
                                   const std::vector<double>& logits,
                                   Label l) {
  std::vector<Label> classes;
  for (int c = 0; c < cfg.model->num_classes(); ++c) {
    if (c != l) classes.push_back(c);
  }
  std::sort(classes.begin(), classes.end(), [&](Label a, Label b) {
    const double la = logits[static_cast<size_t>(a)];
    const double lb = logits[static_cast<size_t>(b)];
    return la != lb ? la > lb : a < b;
  });
  if (cfg.max_contrast_classes > 0 &&
      static_cast<int>(classes.size()) > cfg.max_contrast_classes) {
    classes.resize(static_cast<size_t>(cfg.max_contrast_classes));
  }
  return classes;
}

/// Contrast vector r = Z_pos - Z_neg over a ball, from its evidence rows.
std::vector<double> Contrast(const Matrix& evidence, Label pos, Label neg) {
  std::vector<double> r(static_cast<size_t>(evidence.rows()));
  for (int64_t i = 0; i < evidence.rows(); ++i) {
    r[static_cast<size_t>(i)] = evidence.at(i, pos) - evidence.at(i, neg);
  }
  return r;
}

/// Fills the result's cost fields with the engine-work delta since `before`.
void FillCost(const EngineStats& before, InferenceEngine* engine,
              VerifyResult* r) {
  const EngineStats d = engine->stats() - before;
  r->inference_calls = static_cast<int>(d.model_invocations);
  r->cache_hits = d.cache_hits;
}

/// Warms `views` × cfg.test_nodes: pipelined through the scheduler when one
/// is given (the flushes run concurrently and coalesce with any other
/// outstanding demand), sequential engine warms otherwise. Identical cache
/// contents either way.
void WarmViews(const WitnessConfig& cfg, InferenceEngine* engine,
               BatchScheduler* scheduler,
               const std::vector<InferenceEngine::ViewId>& views) {
  if (scheduler != nullptr) {
    std::vector<LogitRequest> requests;
    requests.reserve(views.size());
    for (InferenceEngine::ViewId id : views) {
      requests.push_back({id, cfg.test_nodes});
    }
    scheduler->WarmAll(requests);
    return;
  }
  for (InferenceEngine::ViewId id : views) engine->Warm(id, cfg.test_nodes);
}

/// Factual check against an already-registered witness-subgraph slot.
VerifyResult FactualImpl(const WitnessConfig& cfg, const Witness& witness,
                         InferenceEngine* engine, BatchScheduler* scheduler,
                         InferenceEngine::ViewId sub_id) {
  // Containment is structural — reject before spending any inference.
  for (NodeId v : cfg.test_nodes) {
    if (!witness.HasNode(v)) {
      VerifyResult r;
      r.reason = "witness does not contain test node";
      r.failed_node = v;
      return r;
    }
  }
  WarmViews(cfg, engine, scheduler, {InferenceEngine::kFullView, sub_id});
  for (NodeId v : cfg.test_nodes) {
    const Label l = engine->Predict(InferenceEngine::kFullView, v);
    if (engine->Predict(sub_id, v) != l) {
      VerifyResult r;
      r.reason = "factual check failed: M(v, Gs) != l";
      r.failed_node = v;
      return r;
    }
  }
  VerifyResult r;
  r.ok = true;
  return r;
}

/// CW check against already-registered witness-view slots.
VerifyResult CwImpl(const WitnessConfig& cfg, const Witness& witness,
                    InferenceEngine* engine, BatchScheduler* scheduler,
                    InferenceEngine::ViewId sub_id,
                    InferenceEngine::ViewId removed_id) {
  VerifyResult factual = FactualImpl(cfg, witness, engine, scheduler, sub_id);
  if (!factual.ok) return factual;
  WarmViews(cfg, engine, scheduler, {removed_id});
  for (NodeId v : cfg.test_nodes) {
    // The base label M(v, G) was computed by the factual pass and is served
    // from the cache here — once per verification, not once per check.
    const Label l = engine->Predict(InferenceEngine::kFullView, v);
    if (engine->Predict(removed_id, v) == l) {
      VerifyResult r;
      r.reason = "counterfactual check failed: M(v, G \\ Gs) == l";
      r.failed_node = v;
      return r;
    }
  }
  VerifyResult r;
  r.ok = true;
  return r;
}

}  // namespace

std::vector<Label> BaseLabels(const WitnessConfig& cfg) {
  RCW_CHECK(cfg.Valid());
  InferenceEngine engine(cfg.model, cfg.graph);
  return BaseLabels(cfg, &engine);
}

std::vector<Label> BaseLabels(const WitnessConfig& cfg,
                              InferenceEngine* engine) {
  RCW_CHECK(cfg.Valid());
  engine->Warm(InferenceEngine::kFullView, cfg.test_nodes);
  std::vector<Label> labels;
  labels.reserve(cfg.test_nodes.size());
  for (NodeId v : cfg.test_nodes) {
    labels.push_back(engine->Predict(InferenceEngine::kFullView, v));
  }
  return labels;
}

double ResolveAlpha(const WitnessConfig& cfg) {
  if (const auto* appnp = dynamic_cast<const AppnpModel*>(cfg.model)) {
    return appnp->alpha();
  }
  return cfg.ppr.alpha;
}

VerifyResult VerifyFactual(const WitnessConfig& cfg, const Witness& witness) {
  RCW_CHECK(cfg.Valid());
  InferenceEngine engine(cfg.model, cfg.graph);
  return VerifyFactual(cfg, witness, &engine);
}

VerifyResult VerifyFactual(const WitnessConfig& cfg, const Witness& witness,
                           InferenceEngine* engine,
                           BatchScheduler* scheduler) {
  RCW_CHECK(cfg.Valid());
  const EngineStats before = engine->stats();
  const EdgeSubsetView sub = witness.SubgraphView(cfg.graph->num_nodes());
  InferenceEngine::ScopedView sub_slot(engine, &sub);
  VerifyResult r = FactualImpl(cfg, witness, engine, scheduler, sub_slot.id());
  FillCost(before, engine, &r);
  return r;
}

VerifyResult VerifyCounterfactual(const WitnessConfig& cfg,
                                  const Witness& witness) {
  RCW_CHECK(cfg.Valid());
  InferenceEngine engine(cfg.model, cfg.graph);
  return VerifyCounterfactual(cfg, witness, &engine);
}

VerifyResult VerifyCounterfactual(const WitnessConfig& cfg,
                                  const Witness& witness,
                                  InferenceEngine* engine,
                                  BatchScheduler* scheduler) {
  RCW_CHECK(cfg.Valid());
  const EngineStats before = engine->stats();
  const EdgeSubsetView sub = witness.SubgraphView(cfg.graph->num_nodes());
  const OverlayView removed = witness.RemovedView(&engine->base_view());
  InferenceEngine::ScopedView sub_slot(engine, &sub);
  InferenceEngine::ScopedView removed_slot(engine, &removed);
  VerifyResult r = CwImpl(cfg, witness, engine, scheduler, sub_slot.id(),
                          removed_slot.id());
  FillCost(before, engine, &r);
  return r;
}

VerifyResult VerifyRcw(const WitnessConfig& cfg, const Witness& witness) {
  RCW_CHECK(cfg.Valid());
  InferenceEngine engine(cfg.model, cfg.graph);
  return VerifyRcw(cfg, witness, &engine);
}

VerifyResult VerifyRcw(const WitnessConfig& cfg, const Witness& witness,
                       InferenceEngine* engine, BatchScheduler* scheduler) {
  RCW_CHECK(cfg.Valid());
  RCW_CHECK_MSG(&engine->base_view() == &engine->full_view(),
                "VerifyRcw reads evidence on kFullView: whole-graph engine");
  const EngineStats before = engine->stats();
  // The search balls hold the test nodes, so their evidence warm also
  // serves the base logits the CW checks read.
  if (cfg.k > 0) WarmEvidence(cfg, engine, cfg.test_nodes);
  const EdgeSubsetView sub = witness.SubgraphView(cfg.graph->num_nodes());
  const OverlayView removed = witness.RemovedView(&engine->base_view());
  InferenceEngine::ScopedView sub_slot(engine, &sub);
  InferenceEngine::ScopedView removed_slot(engine, &removed);
  VerifyResult r = CwImpl(cfg, witness, engine, scheduler, sub_slot.id(),
                          removed_slot.id());
  if (r.ok && cfg.k > 0) {  // k == 0: CW == 0-RCW
    r = detail::CheckRobustness(cfg, cfg.test_nodes, witness, removed,
                                removed_slot.id(), engine, scheduler,
                                /*units=*/nullptr);
  }
  FillCost(before, engine, &r);
  return r;
}

Matrix EvidenceRows(const WitnessConfig& cfg, InferenceEngine* engine,
                    const std::vector<NodeId>& ball) {
  if (const auto* appnp = dynamic_cast<const AppnpModel*>(cfg.model)) {
    return appnp->TransformRows(cfg.graph->features(), ball);
  }
  return engine->LogitRows(InferenceEngine::kFullView, ball);
}

void WarmEvidence(const WitnessConfig& cfg, InferenceEngine* engine,
                  const std::vector<NodeId>& nodes) {
  if (dynamic_cast<const AppnpModel*>(cfg.model) != nullptr) return;
  std::vector<NodeId> rows;
  for (NodeId v : nodes) {
    const std::vector<NodeId> ball = cfg.SearchBall(engine->full_view(), v);
    rows.insert(rows.end(), ball.begin(), ball.end());
  }
  engine->Warm(InferenceEngine::kFullView, rows);
}

namespace detail {

VerifyResult CheckRobustness(const WitnessConfig& cfg,
                             const std::vector<NodeId>& nodes,
                             const Witness& witness, const GraphView& removed,
                             InferenceEngine::ViewId removed_id,
                             InferenceEngine* engine, BatchScheduler* scheduler,
                             int* units) {
  const FullView& full = engine->full_view();
  PriOptions pri_opts = cfg.MakePriOptions();
  pri_opts.ppr.alpha = ResolveAlpha(cfg);
  const auto protected_keys = witness.ProtectedKeys();
  const std::vector<Edge> witness_edges = witness.Edges();

  // Per node: labels on G and G \ Gs, contrast classes, and the balls the
  // units search (G for the contrast classes, G \ Gs for the back check)
  // with their evidence, all served before any unit starts (callers warm
  // the evidence of `nodes` first).
  struct NodeCtx {
    NodeId v;
    Label l, l2;
    std::vector<Label> classes;
    std::vector<NodeId> ball, back_ball;
    Matrix evidence, back_evidence;
  };
  std::vector<NodeCtx> ctx;
  for (NodeId v : nodes) {
    NodeCtx c;
    c.v = v;
    const std::vector<double> logits =
        engine->Logits(InferenceEngine::kFullView, v);
    c.l = ArgmaxLabel(logits);
    c.l2 = engine->Predict(removed_id, v);
    c.classes = ContrastClasses(cfg, logits, c.l);
    c.ball = cfg.SearchBall(full, v);
    c.back_ball = cfg.SearchBall(removed, v);
    c.evidence = EvidenceRows(cfg, engine, c.ball);
    c.back_evidence = EvidenceRows(cfg, engine, c.back_ball);
    ctx.push_back(std::move(c));
  }

  // Units in check order: per node, (i) label robustness per contrast class
  // (no (k, b)-disturbance flips M(v, ~G) away from l, and the witness stays
  // counterfactual under each worst-case candidate), then (ii) the back
  // check (no disturbance of G \ Gs pushes v back to l). Every PRI search
  // runs, on the shared pool, so the searches never depend on timing.
  struct Unit {
    size_t node;
    Label contrast;  // -1 for the back check
    std::vector<Edge> disturbance;
    std::vector<uint64_t> key;  // its canonical flip keys
  };
  std::vector<Unit> order;
  for (size_t i = 0; i < ctx.size(); ++i) {
    for (Label c : ctx[i].classes) order.push_back({i, c, {}, {}});
    order.push_back({i, -1, {}, {}});
  }
  const int64_t n = static_cast<int64_t>(order.size());
  ParallelFor(
      DefaultPool(), n,
      [&](int64_t i) {
        Unit& u = order[static_cast<size_t>(i)];
        const NodeCtx& c = ctx[u.node];
        PriResult pri;
        if (u.contrast < 0) {
          const std::vector<double> r = Contrast(c.back_evidence, c.l, c.l2);
          pri = Pri(removed, protected_keys, c.back_ball, r, pri_opts);
        } else {
          const std::vector<double> r = Contrast(c.evidence, u.contrast, c.l);
          pri = Pri(full, protected_keys, c.ball, r, pri_opts);
        }
        u.disturbance = std::move(pri.disturbance);
        u.key = InferenceEngine::CanonicalFlipKeys(u.disturbance);
      },
      /*min_grain=*/1);
  if (units != nullptr) *units = static_cast<int>(n);

  // With a scheduler, disturbance checks submit their overlay demand, so
  // concurrent verifications of one witness (the serving replay workload)
  // coalesce identical checks into one union-ball flush; the read after it
  // is a cache hit on the values the synchronous path computes. Overlay
  // entries are content-addressed: a verification following generation on
  // a shared engine hits the checks of the generator's last secure round.
  auto predict_overlay = [&](const std::vector<Edge>& flips, NodeId v) {
    if (scheduler != nullptr) scheduler->SubmitOverlay(flips, {v}).Wait();
    return engine->PredictOverlay(flips, v);
  };
  auto judge = [&](const Unit& u) -> std::optional<VerifyResult> {
    const NodeCtx& c = ctx[u.node];
    if (u.disturbance.empty()) return std::nullopt;
    const std::vector<Edge>& d = u.disturbance;
    VerifyResult res;
    res.failed_node = c.v;
    res.counterexample = d;
    if (u.contrast >= 0 && predict_overlay(d, c.v) != c.l) {
      res.reason = "robustness failed: disturbance flips M(v, ~G)";
      return res;
    }
    std::vector<Edge> combined = witness_edges;
    combined.insert(combined.end(), d.begin(), d.end());
    if (predict_overlay(combined, c.v) != c.l) return std::nullopt;
    if (u.contrast >= 0) {
      res.reason =
          "robustness failed: disturbance restores M(v, ~G \\ Gs) == l";
    } else {
      res.reason = "robustness failed: disturbance of G \\ Gs restores label l";
    }
    return res;
  };

  // Judge the proposals by inference on the pool too, but each disturbance
  // of a node once: units proposing the same one would query the same
  // overlay entries at once, and the engine would count both misses. The
  // repeats are judged afterwards, from the cache. The first failing unit
  // in check order wins, as in a sequential run.
  std::vector<bool> repeat(order.size(), false);
  for (size_t i = 0; i < order.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (order[j].node == order[i].node && order[j].key == order[i].key) {
        repeat[i] = true;
      }
    }
  }
  std::vector<std::optional<VerifyResult>> failures(order.size());
  ParallelFor(
      DefaultPool(), n,
      [&](int64_t i) {
        const size_t u = static_cast<size_t>(i);
        if (!repeat[u]) failures[u] = judge(order[u]);
      },
      /*min_grain=*/1);
  for (size_t u = 0; u < order.size(); ++u) {
    if (repeat[u]) failures[u] = judge(order[u]);
    if (failures[u].has_value()) return std::move(*failures[u]);
  }
  VerifyResult ok;
  ok.ok = true;
  return ok;
}

}  // namespace detail

namespace {

struct ExhaustiveState {
  const WitnessConfig* cfg;
  const Witness* witness;
  const FullView* full;
  const std::vector<Edge>* candidates;
  InferenceEngine* engine;
  std::vector<Label> labels;  // aligned with cfg->test_nodes
  std::vector<Edge> chosen;
  std::vector<int> node_load;  // per-node flip count (local budget b)

  // Returns true when a counterexample was found (stored in `result`).
  bool Check(VerifyResult* result) {
    const OverlayView disturbed(full, chosen);
    std::vector<Edge> combined = witness->Edges();
    combined.insert(combined.end(), chosen.begin(), chosen.end());
    const OverlayView disturbed_minus(full, combined);
    InferenceEngine::ScopedView d_slot(engine, &disturbed);
    InferenceEngine::ScopedView dm_slot(engine, &disturbed_minus);
    engine->Warm(d_slot.id(), cfg->test_nodes);
    engine->Warm(dm_slot.id(), cfg->test_nodes);
    for (size_t i = 0; i < cfg->test_nodes.size(); ++i) {
      const NodeId v = cfg->test_nodes[i];
      const Label l = labels[i];
      const bool factual_ok = engine->Predict(d_slot.id(), v) == l;
      const bool counter_ok = engine->Predict(dm_slot.id(), v) != l;
      if (!factual_ok || !counter_ok) {
        result->ok = false;
        result->reason =
            factual_ok ? "exhaustive: counterfactual broken by disturbance"
                       : "exhaustive: label flipped by disturbance";
        result->failed_node = v;
        result->counterexample = chosen;
        return true;
      }
    }
    return false;
  }

  bool Recurse(size_t start, int remaining, VerifyResult* result) {
    if (!chosen.empty() && Check(result)) return true;
    if (remaining == 0) return false;
    for (size_t i = start; i < candidates->size(); ++i) {
      const Edge& e = (*candidates)[i];
      if (node_load[static_cast<size_t>(e.u)] >= cfg->local_budget ||
          node_load[static_cast<size_t>(e.v)] >= cfg->local_budget) {
        continue;
      }
      chosen.push_back(e);
      ++node_load[static_cast<size_t>(e.u)];
      ++node_load[static_cast<size_t>(e.v)];
      if (Recurse(i + 1, remaining - 1, result)) return true;
      --node_load[static_cast<size_t>(e.u)];
      --node_load[static_cast<size_t>(e.v)];
      chosen.pop_back();
    }
    return false;
  }
};

}  // namespace

VerifyResult VerifyRcwExhaustive(const WitnessConfig& cfg,
                                 const Witness& witness,
                                 int64_t max_combinations) {
  RCW_CHECK(cfg.Valid());
  InferenceEngine engine(cfg.model, cfg.graph);
  return VerifyRcwExhaustive(cfg, witness, max_combinations, &engine);
}

VerifyResult VerifyRcwExhaustive(const WitnessConfig& cfg,
                                 const Witness& witness,
                                 int64_t max_combinations,
                                 InferenceEngine* engine) {
  RCW_CHECK(cfg.Valid());
  const EngineStats before = engine->stats();
  const FullView& full = engine->full_view();
  const EdgeSubsetView sub = witness.SubgraphView(cfg.graph->num_nodes());
  // Over the engine's base view (== full_view() on ordinary engines), so
  // the removed slot stays consistent with kFullView on shard engines.
  const OverlayView removed = witness.RemovedView(&engine->base_view());
  InferenceEngine::ScopedView sub_slot(engine, &sub);
  InferenceEngine::ScopedView removed_slot(engine, &removed);
  VerifyResult cw = CwImpl(cfg, witness, engine, /*scheduler=*/nullptr,
                           sub_slot.id(), removed_slot.id());
  if (!cw.ok) {
    FillCost(before, engine, &cw);
    return cw;
  }

  // Candidate pairs within the hop radius of any test node.
  const std::vector<NodeId> ball =
      KHopBall(full, cfg.test_nodes, cfg.hop_radius);
  std::vector<Edge> candidates;
  const auto protected_keys = witness.ProtectedKeys();
  for (const Edge& e : InducedEdges(full, ball)) {
    if (protected_keys.count(e.Key()) == 0) candidates.push_back(e);
  }
  if (cfg.disturbance == DisturbanceModel::kFlip) {
    for (size_t i = 0; i < ball.size(); ++i) {
      for (size_t j = i + 1; j < ball.size(); ++j) {
        const Edge e(ball[i], ball[j]);
        if (!full.HasEdge(e.u, e.v) && protected_keys.count(e.Key()) == 0) {
          candidates.push_back(e);
        }
      }
    }
    std::sort(candidates.begin(), candidates.end());
  }

  // Guard against combinatorial blow-up (this is the NP-hard general case).
  double combos = 0.0;
  double binom = 1.0;
  for (int j = 1; j <= cfg.k && j <= static_cast<int>(candidates.size()); ++j) {
    binom *= static_cast<double>(candidates.size() - j + 1) / j;
    combos += binom;
    RCW_CHECK_MSG(combos <= static_cast<double>(max_combinations),
                  "VerifyRcwExhaustive: enumeration too large");
  }

  ExhaustiveState state;
  state.cfg = &cfg;
  state.witness = &witness;
  state.full = &full;
  state.candidates = &candidates;
  state.engine = engine;
  state.labels = BaseLabels(cfg, engine);
  state.node_load.assign(static_cast<size_t>(cfg.graph->num_nodes()), 0);

  VerifyResult result;
  if (state.Recurse(0, cfg.k, &result)) {
    FillCost(before, engine, &result);
    return result;
  }
  result = VerifyResult();
  result.ok = true;
  FillCost(before, engine, &result);
  return result;
}

WitnessEngineViews::WitnessEngineViews(InferenceEngine* engine)
    : engine_(engine) {
  RCW_CHECK(engine != nullptr);
}

WitnessEngineViews::~WitnessEngineViews() {
  if (synced_) {
    engine_->Release(sub_id_);
    engine_->Release(removed_id_);
  }
}

WitnessServeViews::WitnessServeViews(InferenceEngine* engine,
                                     const Witness* witness)
    : engine_(engine) {
  RCW_CHECK(engine != nullptr);
  views_["full"] = InferenceEngine::kFullView;
  if (witness == nullptr) return;
  sub_ = std::make_unique<EdgeSubsetView>(
      witness->SubgraphView(engine->graph().num_nodes()));
  // G ∖ Gs over the engine's base view: the whole graph on an ordinary
  // engine, the replicated fragment on a shard engine (fragment-local
  // witness serving — bit-identical, since G ∖ Gs only removes edges and
  // so never reaches outside the replicated halo).
  removed_ =
      std::make_unique<OverlayView>(witness->RemovedView(&engine->base_view()));
  views_["sub"] = engine->Register(sub_.get());
  views_["removed"] = engine->Register(removed_.get());
}

WitnessServeViews::~WitnessServeViews() {
  if (sub_ != nullptr) {
    engine_->Release(views_.at("sub"));
    engine_->Release(views_.at("removed"));
  }
}

void WitnessEngineViews::Sync(const Witness& witness) {
  if (synced_ && witness.edge_version() == synced_version_) return;
  // Build the new views before rebinding so the slots never dangle, then
  // drop the old ones. Bind() invalidates the slots' cached logits — this
  // is the explicit cache invalidation on witness edge-set mutation.
  auto sub = std::make_unique<EdgeSubsetView>(
      witness.SubgraphView(engine_->graph().num_nodes()));
  // Over the engine's base view, like WitnessServeViews: whole graph on an
  // ordinary engine, the replicated fragment on a shard engine.
  auto removed =
      std::make_unique<OverlayView>(witness.RemovedView(&engine_->base_view()));
  if (!synced_) {
    sub_id_ = engine_->Register(sub.get());
    removed_id_ = engine_->Register(removed.get());
    synced_ = true;
  } else {
    engine_->Bind(sub_id_, sub.get());
    engine_->Bind(removed_id_, removed.get());
  }
  sub_ = std::move(sub);
  removed_ = std::move(removed);
  synced_version_ = witness.edge_version();
}

}  // namespace robogexp
