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
/// second. No inference happens here: `r` is the class-l column of the
/// evidence rows of v's search ball `ball`, read once per SecureNode call.
std::vector<EvidenceEdge> RankExpansionCandidates(
    const WitnessConfig& cfg, const FullView& full,
    const std::vector<NodeId>& ball, const std::vector<double>& r,
    const Witness& gs, const NodeWorkScope& scope) {
  PprOptions ppr = cfg.ppr;
  ppr.alpha = ResolveAlpha(cfg);
  std::vector<EvidenceEdge> out = RankEvidenceEdges(full, ball, r, ppr);
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

bool SecureNode(const WitnessConfig& cfg, NodeId v, const GenerateOptions& opts,
                const NodeWorkScope& scope, InferenceEngine* engine,
                WitnessEngineViews* views, Witness* out_gs,
                GenerateStats* stats) {
  RCW_CHECK_MSG(&engine->base_view() == &engine->full_view(),
                "SecureNode reads evidence on kFullView: whole-graph engine");
  // Work on a copy and commit only on success: a failed node must not leave
  // partial expansion in the shared witness.
  Witness work = *out_gs;
  Witness* gs = &work;
  const FullView& full = engine->full_view();
  gs->AddNode(v);
  out_gs->AddNode(v);
  // v's ball evidence and base label never change (the full view is
  // immutable): the evidence is read once, its warm serves v's label too,
  // and the label is a cache hit on every later secure round and pass.
  const std::vector<NodeId> ball = cfg.SearchBall(full, v);
  const Matrix evidence = EvidenceRows(cfg, engine, ball);
  const Label l = engine->Predict(InferenceEngine::kFullView, v);
  std::vector<double> class_l(ball.size());
  for (size_t i = 0; i < ball.size(); ++i) {
    class_l[i] = evidence.at(static_cast<int64_t>(i), l);
  }

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
          RankExpansionCandidates(cfg, full, ball, class_l, *gs, scope);
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
    // VerifyRcw's units for v on the working witness. Their G \ Gs
    // prediction is a cache hit: the CW probe above computed it.
    views->Sync(*gs);
    const OverlayView& removed = views->removed_view();
    int units = 0;
    const VerifyResult check = CheckRobustness(cfg, {v}, *gs, removed,
                                               views->removed_id(), engine,
                                               /*scheduler=*/nullptr, &units);
    stats->pri_calls += units;
    if (check.ok) {
      // No adversary found — node secured; commit.
      *out_gs = std::move(work);
      return true;
    }
    // Secure the most damaging offending pairs (PRI orders the disturbance
    // by adversarial impact): removals become witness edges, insertions
    // become protected pairs. Blocking the top few usually neutralizes the
    // disturbance; the next round re-establishes CW and re-verifies.
    const std::vector<Edge>& disturbance = check.counterexample;
    const int size = static_cast<int>(disturbance.size());
    const int take = std::min(opts.secure_batch, size);
    for (int i = 0; i < take; ++i) {
      const Edge& e = disturbance[static_cast<size_t>(i)];
      if (cfg.graph->HasEdge(e.u, e.v)) {
        gs->AddEdge(e.u, e.v);
      } else {
        gs->AddProtectedPair(e.u, e.v);
      }
    }
    if (opts.verbose) {
      std::printf("[RoboGExp] v=%d secured %d of %zu pairs (%s)\n", v, take,
                  disturbance.size(), check.reason.c_str());
    }
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
  RCW_CHECK_MSG(&engine->base_view() == &engine->full_view(),
                "GenerateRcw reads evidence on kFullView: whole-graph engine");
  Timer timer;
  GenerateResult result;
  const EngineStats before = engine->stats();
  auto finish = [&]() -> GenerateResult& {
    AddEngineDelta(engine->stats() - before, &result.stats);
    result.stats.seconds = timer.Seconds();
    return result;
  };

  for (NodeId v : cfg.test_nodes) result.witness.AddNode(v);
  WarmEvidence(cfg, engine, cfg.test_nodes);

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
      if (!detail::SecureNode(cfg, v, pass_opts, scope, engine, &views,
                              &result.witness, &result.stats)) {
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
