#include "src/explain/robogexp.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/util/timer.h"

namespace robogexp {

Witness TrivialWitness(const Graph& graph,
                       const std::vector<NodeId>& test_nodes) {
  Witness w;
  for (NodeId v : test_nodes) w.AddNode(v);
  for (const Edge& e : graph.Edges()) w.AddEdge(e.u, e.v);
  return w;
}

namespace detail {

namespace {

/// Evidence-carrying candidate edges around v, nearest-and-strongest first.
///
/// Both CW conditions are local to v: the factual side needs evidence paths
/// reaching v, and the counterfactual side needs G ∖ Gs to lose an edge-cut
/// around v. Candidates are therefore ordered by hop distance from v first
/// (v's incident edges form the natural cut) and by routed class-l evidence
/// second. No inference happens here — the class-l evidence is read from the
/// base logits the caller computed once per generation.
std::vector<EvidenceEdge> RankExpansionCandidates(
    const WitnessConfig& cfg, const FullView& full, NodeId v, Label l,
    const Matrix& base_logits, const Witness& gs, const NodeWorkScope& scope) {
  PprOptions ppr = cfg.ppr;
  ppr.alpha = ResolveAlpha(cfg);
  std::vector<EvidenceEdge> out = RankEvidenceEdges(
      full, v, cfg.hop_radius, cfg.max_ball_nodes, base_logits, l, ppr);
  std::erase_if(out, [&](const EvidenceEdge& c) {
    const Edge& e = c.edge;
    return gs.HasEdge(e.u, e.v) ||
           (scope.allowed_edges != nullptr &&
            scope.allowed_edges->count(e.Key()) == 0) ||
           (scope.allowed_nodes != nullptr &&
            (scope.allowed_nodes->count(e.u) == 0 ||
             scope.allowed_nodes->count(e.v) == 0));
  });
  return out;
}

/// Single-node CW condition under the current witness: two predictions on
/// the engine's witness-view slots (cached until the witness mutates).
bool IsCwForNode(InferenceEngine* engine, WitnessEngineViews* views, NodeId v,
                 Label l, const Witness& gs) {
  views->Sync(gs);
  if (engine->Predict(views->sub_id(), v) != l) return false;
  return engine->Predict(views->removed_id(), v) != l;
}

std::vector<Label> ContrastOrder(const WitnessConfig& cfg,
                                 const std::vector<double>& logits, Label l) {
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

}  // namespace

std::vector<NodeId> PrioritizeTestNodes(const WitnessConfig& cfg) {
  InferenceEngine engine(cfg.model, cfg.graph);
  return PrioritizeTestNodes(cfg, &engine);
}

std::vector<NodeId> PrioritizeTestNodes(const WitnessConfig& cfg,
                                        InferenceEngine* engine) {
  engine->Warm(InferenceEngine::kFullView, cfg.test_nodes);
  std::vector<std::pair<double, NodeId>> ranked;
  for (NodeId v : cfg.test_nodes) {
    const std::vector<double> logits =
        engine->Logits(InferenceEngine::kFullView, v);
    std::vector<double> sorted = logits;
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    const double margin = sorted.size() > 1 ? sorted[0] - sorted[1] : 1.0;
    ranked.emplace_back(margin, v);
  }
  // Smallest margin first: fragile nodes shape Gs early, stable nodes are
  // usually already covered by it.
  std::sort(ranked.begin(), ranked.end());
  std::vector<NodeId> order;
  order.reserve(ranked.size());
  for (const auto& [m, v] : ranked) order.push_back(v);
  return order;
}

bool SecureNode(const WitnessConfig& cfg, NodeId v, const Matrix& base_logits,
                const GenerateOptions& opts, const NodeWorkScope& scope,
                InferenceEngine* engine, WitnessEngineViews* views,
                Witness* out_gs, GenerateStats* stats) {
  // Work on a copy and commit only on success: a failed node must not leave
  // partial expansion in the shared witness.
  Witness work = *out_gs;
  Witness* gs = &work;
  const FullView& full = engine->full_view();
  gs->AddNode(v);
  out_gs->AddNode(v);
  // The base label and logits of v never change (the full view is
  // immutable), so these are cache hits on every secure round and every
  // fixpoint pass after the first.
  const Label l = engine->Predict(InferenceEngine::kFullView, v);

  PriOptions pri_opts = cfg.MakePriOptions();
  pri_opts.ppr.alpha = ResolveAlpha(cfg);

  for (int secure_round = 0; secure_round <= cfg.k + opts.max_secure_rounds;
       ++secure_round) {
    ++stats->secure_rounds;

    // -- Phase 1: expand until Gs is a CW for v. ---------------------------
    int expand_round = 0;
    std::vector<Edge> added_this_phase;
    while (!IsCwForNode(engine, views, v, l, *gs)) {
      if (++expand_round > opts.max_expand_rounds) return false;
      ++stats->expand_rounds;
      const auto candidates =
          RankExpansionCandidates(cfg, full, v, l, base_logits, *gs, scope);
      if (candidates.empty()) return false;
      const int take =
          std::min<int>(opts.expand_batch, static_cast<int>(candidates.size()));
      for (int i = 0; i < take; ++i) {
        const Edge& e = candidates[static_cast<size_t>(i)].edge;
        gs->AddEdge(e.u, e.v);
        added_this_phase.push_back(e);
      }
      if (opts.verbose) {
        std::printf("[RoboGExp] v=%d expand round %d, |Gs|=%zu\n", v,
                    expand_round, gs->Size());
      }
    }
    // Greedy trim: drop expansion edges that are not needed for the CW
    // conditions of v (checked in reverse addition order — later edges were
    // weaker candidates). Secured edges from earlier rounds are never
    // dropped.
    if (opts.trim && !added_this_phase.empty()) {
      for (auto it = added_this_phase.rbegin(); it != added_this_phase.rend();
           ++it) {
        // Rebuild without this edge (Witness has no erase; small copies are
        // cheap at witness scale).
        Witness reduced;
        for (NodeId n : gs->Nodes()) reduced.AddNode(n);
        bool skipped = false;
        for (const Edge& e : gs->Edges()) {
          if (!skipped && e == *it) {
            skipped = true;
            continue;
          }
          reduced.AddEdge(e.u, e.v);
        }
        if (IsCwForNode(engine, views, v, l, reduced)) {
          *gs = std::move(reduced);
        }
      }
    }
    if (cfg.k == 0) {  // CW == 0-RCW
      *out_gs = std::move(work);
      return true;
    }

    // -- Phase 2: adversarial verification; secure offending pairs. -------
    const std::vector<double> logits =
        engine->Logits(InferenceEngine::kFullView, v);
    const auto protected_keys = gs->ProtectedKeys();
    bool violated = false;

    for (Label c : ContrastOrder(cfg, logits, l)) {
      std::vector<double> r(static_cast<size_t>(cfg.graph->num_nodes()));
      for (NodeId u = 0; u < cfg.graph->num_nodes(); ++u) {
        r[static_cast<size_t>(u)] =
            base_logits.at(u, c) - base_logits.at(u, l);
      }
      ++stats->pri_calls;
      const PriResult pri = Pri(full, protected_keys, v, r, pri_opts);
      if (pri.disturbance.empty()) continue;

      // Content-addressed: a stable witness reproduces the same PRI
      // disturbance on every re-verification pass, so these re-checks hit
      // the engine's overlay cache.
      bool bad = engine->PredictOverlay(pri.disturbance, v) != l;
      if (!bad) {
        std::vector<Edge> combined = gs->Edges();
        combined.insert(combined.end(), pri.disturbance.begin(),
                        pri.disturbance.end());
        bad = engine->PredictOverlay(combined, v) == l;
      }
      if (bad) {
        // Secure the most damaging offending pairs (PRI orders the
        // disturbance by adversarial impact): removals become witness
        // edges, insertions become protected pairs. Blocking the top few
        // usually neutralizes the disturbance; the loop re-verifies.
        const int take = std::min<int>(
            opts.secure_batch, static_cast<int>(pri.disturbance.size()));
        for (int i = 0; i < take; ++i) {
          const Edge& e = pri.disturbance[static_cast<size_t>(i)];
          if (cfg.graph->HasEdge(e.u, e.v)) {
            gs->AddEdge(e.u, e.v);
          } else {
            gs->AddProtectedPair(e.u, e.v);
          }
        }
        if (opts.verbose) {
          std::printf("[RoboGExp] v=%d secured %zu pairs (contrast %d)\n", v,
                      pri.disturbance.size(), c);
        }
        violated = true;
        break;  // re-establish CW, then re-verify
      }
    }
    if (violated) continue;

    // Counterfactual side: strongest restoration disturbance of G \ Gs. The
    // removed-view prediction is a cache hit: the CW probe above already
    // computed it for the current witness state.
    views->Sync(*gs);
    const Label l2 = engine->Predict(views->removed_id(), v);
    std::vector<double> r(static_cast<size_t>(cfg.graph->num_nodes()));
    for (NodeId u = 0; u < cfg.graph->num_nodes(); ++u) {
      r[static_cast<size_t>(u)] = base_logits.at(u, l) - base_logits.at(u, l2);
    }
    ++stats->pri_calls;
    const PriResult back =
        Pri(views->removed_view(), protected_keys, v, r, pri_opts);
    if (!back.disturbance.empty()) {
      std::vector<Edge> combined = gs->Edges();
      combined.insert(combined.end(), back.disturbance.begin(),
                      back.disturbance.end());
      if (engine->PredictOverlay(combined, v) == l) {
        const int take = std::min<int>(
            opts.secure_batch, static_cast<int>(back.disturbance.size()));
        for (int i = 0; i < take; ++i) {
          const Edge& e = back.disturbance[static_cast<size_t>(i)];
          if (cfg.graph->HasEdge(e.u, e.v)) {
            gs->AddEdge(e.u, e.v);
          } else {
            gs->AddProtectedPair(e.u, e.v);
          }
        }
        continue;
      }
    }
    // No adversary found — node secured; commit.
    *out_gs = std::move(work);
    return true;
  }
  return false;
}

}  // namespace detail

GenerateResult GenerateRcw(const WitnessConfig& cfg,
                           const GenerateOptions& opts) {
  RCW_CHECK(cfg.Valid());
  InferenceEngine engine(cfg.model, cfg.graph, EngineOptionsFor(opts));
  return GenerateRcw(cfg, opts, &engine);
}

GenerateResult GenerateRcw(const WitnessConfig& cfg,
                           const GenerateOptions& opts,
                           InferenceEngine* engine) {
  RCW_CHECK(cfg.Valid());
  RCW_CHECK(&engine->model() == cfg.model && &engine->graph() == cfg.graph);
  Timer timer;
  GenerateResult result;
  const EngineStats before = engine->stats();
  auto finish = [&]() -> GenerateResult& {
    AddEngineDelta(engine->stats() - before, &result.stats);
    result.stats.seconds = timer.Seconds();
    return result;
  };

  const FullView& full = engine->full_view();
  const Matrix base_logits =
      cfg.model->BaseLogits(full, cfg.graph->features());

  for (NodeId v : cfg.test_nodes) result.witness.AddNode(v);

  const std::vector<NodeId> order =
      detail::PrioritizeTestNodes(cfg, engine);
  detail::NodeWorkScope scope;
  WitnessEngineViews views(engine);
  // Securing a later node grows Gs, which can perturb an earlier node's
  // factual check; iterate to a fixpoint (witness growth is monotone and
  // bounded by |G|, so this terminates — Algorithm 2's outer while loop).
  size_t prev_size = 0;
  std::unordered_set<NodeId> unsecured;
  for (int pass = 0; pass < 4 && result.witness.Size() != prev_size; ++pass) {
    prev_size = result.witness.Size();
    // Trimming is a first-pass-only optimization: dropping an edge can break
    // an *earlier* node's factual check, so later passes run without it and
    // converge monotonically (witness growth is bounded by |G|).
    GenerateOptions pass_opts = opts;
    if (pass > 0) pass_opts.trim = false;
    if (pass > 0) {
      // Re-verification passes rarely mutate the witness, so the per-node CW
      // probes mostly query the same witness state: warm the witness views
      // for every node in two batched inferences up front. (Pointless in
      // pass 0, where the first secured node invalidates them anyway.)
      views.Sync(result.witness);
      engine->Warm(views.sub_id(), order);
      engine->Warm(views.removed_id(), order);
    }
    for (NodeId v : order) {
      if (unsecured.count(v) > 0) continue;
      if (!detail::SecureNode(cfg, v, base_logits, pass_opts, scope, engine,
                              &views, &result.witness, &result.stats)) {
        if (opts.skip_unsecurable) {
          unsecured.insert(v);
          continue;
        }
        result.witness = TrivialWitness(*cfg.graph, cfg.test_nodes);
        result.trivial = true;
        return finish();
      }
    }
  }
  result.unsecured.assign(unsecured.begin(), unsecured.end());
  std::sort(result.unsecured.begin(), result.unsecured.end());

  return finish();
}

}  // namespace robogexp
