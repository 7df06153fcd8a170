// Reference suite for generation and verification. Generation's secure
// phase as it ran before it shared the verifier's parallel units (one
// contrast class after another, then the back check), the verifier on
// whole-graph BaseLogits evidence, and the parallel generators built on
// them are kept verbatim below, apart from calling Pri and RankEvidenceEdges
// through adapters: both used to take |V|-long vectors and now take the
// search ball and evidence aligned with it. The library runs every secure
// round through VerifyRcw's units and reads evidence rows from the engine's
// kFullView slot; witnesses and verdicts must not change. Compared field by
// field: GenerateRcw's witness edges, protected pairs, unsecured nodes and
// trivial flag (and its round counts), and VerifyRcw's ok, reason, failed
// node and counterexample, on five models, both disturbance models,
// k in {1, 3, 20} and b in {1, 2}, on the two-community graph and a random
// SBM; plus ParaGenerateRcw, ParaSecureNodes and a maintainer after a short
// update stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/datasets/synthetic.h"
#include "src/explain/para.h"
#include "src/explain/robogexp.h"
#include "src/explain/verify.h"
#include "src/gnn/appnp.h"
#include "src/gnn/trainer.h"
#include "src/stream/maintain.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

using detail::NodeWorkScope;

// --- Adapters to the ball-and-evidence signatures -------------------------

// Pri as the references call it: over v's search ball on `base`, with
// `r_global` indexed by node id.
PriResult OldPri(const WitnessConfig& cfg, const GraphView& base,
                 const std::unordered_set<uint64_t>& protected_keys, NodeId v,
                 const std::vector<double>& r_global, const PriOptions& opts) {
  const std::vector<NodeId> ball =
      CappedBall(base, v, cfg.hop_radius, cfg.max_ball_nodes);
  std::vector<double> r(ball.size());
  for (size_t i = 0; i < ball.size(); ++i) {
    r[i] = r_global[static_cast<size_t>(ball[i])];
  }
  return Pri(base, protected_keys, ball, r, opts);
}

// RankEvidenceEdges as the references call it: over v's search ball, with
// column `l` of whole-graph logits as the evidence.
std::vector<EvidenceEdge> OldRankEvidenceEdges(const GraphView& view, NodeId v,
                                               int hop_radius,
                                               int max_ball_nodes,
                                               const Matrix& logits, Label l,
                                               const PprOptions& opts) {
  const std::vector<NodeId> ball =
      CappedBall(view, v, hop_radius, max_ball_nodes);
  std::vector<double> r(ball.size());
  for (size_t i = 0; i < ball.size(); ++i) r[i] = logits.at(ball[i], l);
  return RankEvidenceEdges(view, ball, r, opts);
}

// --- References: the code before the change ---------------------------------

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
  std::vector<EvidenceEdge> out = OldRankEvidenceEdges(
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

bool ReferenceSecureNode(const WitnessConfig& cfg, NodeId v,
                         const Matrix& base_logits,
                         const GenerateOptions& opts,
                         const NodeWorkScope& scope, InferenceEngine* engine,
                         WitnessEngineViews* views, Witness* out_gs,
                         GenerateStats* stats) {
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
      const PriResult pri = OldPri(cfg, full, protected_keys, v, r, pri_opts);
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
        OldPri(cfg, views->removed_view(), protected_keys, v, r, pri_opts);
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

GenerateResult ReferenceGenerateRcw(const WitnessConfig& cfg,
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
      if (!ReferenceSecureNode(cfg, v, base_logits, pass_opts, scope, engine,
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

std::vector<double> ContrastVector(const Matrix& base_logits, Label pos,
                                   Label neg) {
  std::vector<double> r(static_cast<size_t>(base_logits.rows()));
  for (int64_t u = 0; u < base_logits.rows(); ++u) {
    r[static_cast<size_t>(u)] = base_logits.at(u, pos) - base_logits.at(u, neg);
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

VerifyResult ReferenceVerifyRcw(const WitnessConfig& cfg,
                                const Witness& witness,
                                InferenceEngine* engine,
                                BatchScheduler* scheduler = nullptr) {
  RCW_CHECK(cfg.Valid());
  const EngineStats before = engine->stats();
  const FullView& full = engine->full_view();
  const EdgeSubsetView sub = witness.SubgraphView(cfg.graph->num_nodes());
  // Over the engine's base view (== full_view() on ordinary engines), so
  // the removed slot stays consistent with kFullView on shard engines.
  const OverlayView removed = witness.RemovedView(&engine->base_view());
  InferenceEngine::ScopedView sub_slot(engine, &sub);
  InferenceEngine::ScopedView removed_slot(engine, &removed);

  VerifyResult cw = VerifyCounterfactual(cfg, witness, engine, scheduler);
  if (!cw.ok) {
    FillCost(before, engine, &cw);
    return cw;
  }
  if (cfg.k == 0) {  // CW == 0-RCW
    VerifyResult r;
    r.ok = true;
    FillCost(before, engine, &r);
    return r;
  }

  const Matrix base_logits = cfg.model->BaseLogits(full, cfg.graph->features());
  PriOptions pri_opts = cfg.MakePriOptions();
  pri_opts.ppr.alpha = ResolveAlpha(cfg);
  const auto protected_keys = witness.ProtectedKeys();
  const std::vector<Edge> witness_edges = witness.Edges();

  // Per-node context from the cached base logits (warmed by the CW pass).
  struct NodeCtx {
    NodeId v;
    std::vector<double> logits;
    Label l;
    std::vector<Label> classes;
  };
  std::vector<NodeCtx> ctx;
  ctx.reserve(cfg.test_nodes.size());
  for (NodeId v : cfg.test_nodes) {
    NodeCtx c;
    c.v = v;
    c.logits = engine->Logits(InferenceEngine::kFullView, v);
    c.l = ArgmaxLabel(c.logits);
    c.classes = ContrastClasses(cfg, c.logits, c.l);
    ctx.push_back(std::move(c));
  }

  // Per-contrast disturbance checks submit their overlay demand instead of
  // querying synchronously when a scheduler is given: concurrent
  // verifications of the same witness (the serving replay workload) then
  // coalesce identical disturbance checks into one union-ball flush. The
  // read afterwards is a cache hit on exactly the values the synchronous
  // path would compute.
  auto predict_overlay = [&](const std::vector<Edge>& flips, NodeId v) {
    if (scheduler != nullptr) scheduler->SubmitOverlay(flips, {v}).Wait();
    return engine->PredictOverlay(flips, v);
  };

  // (i) Label robustness per (node, contrast class): no (k, b)-disturbance
  // flips M(v, ~G) away from l, and the witness stays counterfactual under
  // each worst-case candidate.
  auto run_class_unit =
      [&](const NodeCtx& c, Label contrast) -> std::optional<VerifyResult> {
    const std::vector<double> r = ContrastVector(base_logits, contrast, c.l);
    const PriResult pri = OldPri(cfg, full, protected_keys, c.v, r, pri_opts);
    if (pri.disturbance.empty()) return std::nullopt;
    // Overlay predictions are content-addressed: when this verification
    // follows generation on a shared engine, the generator's final secure
    // round already checked the same disturbances — cache hits here.
    if (predict_overlay(pri.disturbance, c.v) != c.l) {
      VerifyResult res;
      res.reason = "robustness failed: disturbance flips M(v, ~G)";
      res.failed_node = c.v;
      res.counterexample = pri.disturbance;
      return res;
    }
    std::vector<Edge> combined = witness_edges;
    combined.insert(combined.end(), pri.disturbance.begin(),
                    pri.disturbance.end());
    if (predict_overlay(combined, c.v) == c.l) {
      VerifyResult res;
      res.reason =
          "robustness failed: disturbance restores M(v, ~G \\ Gs) == l";
      res.failed_node = c.v;
      res.counterexample = pri.disturbance;
      return res;
    }
    return std::nullopt;
  };

  // (ii) Counterfactual robustness from the other side: the strongest
  // disturbance of G \ Gs pushing v back toward l must not succeed.
  auto run_back_unit =
      [&](const NodeCtx& c) -> std::optional<VerifyResult> {
    const Label l2 = engine->Predict(removed_slot.id(), c.v);
    const std::vector<double> r_back = ContrastVector(base_logits, c.l, l2);
    const PriResult back = OldPri(cfg, removed, protected_keys, c.v, r_back,
                                    pri_opts);
    if (back.disturbance.empty()) return std::nullopt;
    std::vector<Edge> combined = witness_edges;
    combined.insert(combined.end(), back.disturbance.begin(),
                    back.disturbance.end());
    if (predict_overlay(combined, c.v) == c.l) {
      VerifyResult res;
      res.reason = "robustness failed: disturbance of G \\ Gs restores label l";
      res.failed_node = c.v;
      res.counterexample = back.disturbance;
      return res;
    }
    return std::nullopt;
  };

  // The units are independent; run them on the shared pool. Units are listed
  // in the sequential verifier's check order, and the lexicographically
  // smallest failing unit wins, so the reported outcome is identical to the
  // sequential run (later units may be skipped once an earlier failure is
  // known, which only sheds redundant work).
  struct Unit {
    size_t node;
    int cls;  // index into NodeCtx::classes, or -1 for the back-check
  };
  std::vector<Unit> units;
  for (size_t i = 0; i < ctx.size(); ++i) {
    for (size_t j = 0; j < ctx[i].classes.size(); ++j) {
      units.push_back({i, static_cast<int>(j)});
    }
    units.push_back({i, -1});
  }
  std::vector<std::optional<VerifyResult>> failures(units.size());
  std::atomic<size_t> first_failure{units.size()};
  ParallelFor(
      DefaultPool(), static_cast<int64_t>(units.size()),
      [&](int64_t idx) {
        const size_t uidx = static_cast<size_t>(idx);
        if (first_failure.load(std::memory_order_acquire) < uidx) return;
        const Unit& u = units[uidx];
        std::optional<VerifyResult> f =
            u.cls < 0 ? run_back_unit(ctx[u.node])
                      : run_class_unit(
                            ctx[u.node],
                            ctx[u.node].classes[static_cast<size_t>(u.cls)]);
        if (f.has_value()) {
          failures[uidx] = std::move(*f);
          size_t cur = first_failure.load();
          while (uidx < cur &&
                 !first_failure.compare_exchange_weak(cur, uidx)) {
          }
        }
      },
      /*min_grain=*/1);

  const size_t winner = first_failure.load();
  if (winner < units.size()) {
    VerifyResult res = *failures[winner];
    FillCost(before, engine, &res);
    return res;
  }
  VerifyResult res;
  res.ok = true;
  FillCost(before, engine, &res);
  return res;
}

struct WorkerOutput {
  Witness witness;
  std::vector<NodeId> secured;       // nodes fully secured locally
  std::vector<NodeId> needs_global;  // nodes whose ball escaped the fragment
  Bitmap touched_edges;              // edges examined by local verification
  GenerateStats stats;
  bool failed = false;
  double seconds = 0.0;
};

/// Pipelined CW-probe warm: the three independent union-ball warms — full,
/// Gs, G ∖ Gs — run concurrently on the shared (nest-safe) pool instead of
/// back-to-back. Cache contents are bit-identical to sequential Warm()s.
void PipelinedProbeWarm(InferenceEngine* engine, WitnessEngineViews* views,
                        const std::vector<NodeId>& nodes) {
  const InferenceEngine::ViewId ids[] = {InferenceEngine::kFullView,
                                         views->sub_id(), views->removed_id()};
  ParallelFor(DefaultPool(), 3,
              [&](int64_t i) { engine->Warm(ids[i], nodes); },
              /*min_grain=*/1);
}

void AccumulateGen(const GenerateStats& in, GenerateStats* out) {
  out->inference_calls += in.inference_calls;
  out->pri_calls += in.pri_calls;
  out->expand_rounds += in.expand_rounds;
  out->secure_rounds += in.secure_rounds;
  out->node_queries += in.node_queries;
  out->cache_hits += in.cache_hits;
  out->batched_nodes += in.batched_nodes;
}

std::vector<NodeId> ReferenceParaSecureNodes(
    const WitnessConfig& cfg, const std::vector<NodeId>& nodes,
    const Matrix& base_logits, const GenerateOptions& opts, int num_threads,
    Witness* witness, GenerateStats* stats) {
  RCW_CHECK(cfg.Valid());
  RCW_CHECK(witness != nullptr && stats != nullptr);
  if (nodes.empty()) return {};

  const detail::NodeWorkScope scope;  // unrestricted

  // Round-robin node groups; each group gets a private engine and witness
  // copy (the witness is small, the engine caches are group-local).
  const size_t n_groups = std::min<size_t>(
      nodes.size(), static_cast<size_t>(std::max(1, num_threads)));
  std::vector<Witness> locals(n_groups, *witness);
  std::vector<GenerateStats> local_stats(n_groups);
  std::vector<std::vector<NodeId>> local_failed(n_groups);
  ParallelFor(
      DefaultPool(), static_cast<int64_t>(n_groups),
      [&](int64_t g) {
        const size_t gi = static_cast<size_t>(g);
        InferenceEngine engine(cfg.model, cfg.graph, EngineOptionsFor(opts));
        const EngineStats before = engine.stats();
        WitnessEngineViews views(&engine);
        for (size_t i = gi; i < nodes.size(); i += n_groups) {
          if (!ReferenceSecureNode(cfg, nodes[i], base_logits, opts, scope,
                                  &engine, &views, &locals[gi],
                                  &local_stats[gi])) {
            local_failed[gi].push_back(nodes[i]);
          }
        }
        AddEngineDelta(engine.stats() - before, &local_stats[gi]);
      },
      /*min_grain=*/1);

  // Merge: witness growth is monotone, so the union preserves every worker's
  // secured structure.
  std::vector<NodeId> retry;
  for (size_t g = 0; g < n_groups; ++g) {
    for (NodeId u : locals[g].Nodes()) witness->AddNode(u);
    for (const Edge& e : locals[g].Edges()) witness->AddEdge(e.u, e.v);
    for (uint64_t key : locals[g].protected_pair_keys()) {
      witness->AddProtectedPair(PairKeyFirst(key), PairKeySecond(key));
    }
    AccumulateGen(local_stats[g], stats);
    retry.insert(retry.end(), local_failed[g].begin(), local_failed[g].end());
  }

  // Coordinator: a union edge landing in another node's receptive field can
  // perturb its factual check — probe cheaply, re-secure the demoted nodes
  // (plus the worker-side failures) sequentially on one engine.
  InferenceEngine coord(cfg.model, cfg.graph, EngineOptionsFor(opts));
  const EngineStats coord_before = coord.stats();
  WitnessEngineViews coord_views(&coord);
  coord_views.Sync(*witness);
  PipelinedProbeWarm(&coord, &coord_views, nodes);
  const std::unordered_set<NodeId> failed_first(retry.begin(), retry.end());
  for (NodeId v : nodes) {
    if (failed_first.count(v) > 0) continue;  // already queued for retry
    const Label l = coord.Predict(InferenceEngine::kFullView, v);
    if (coord.Predict(coord_views.sub_id(), v) != l ||
        coord.Predict(coord_views.removed_id(), v) == l) {
      retry.push_back(v);
    }
  }
  std::vector<NodeId> failed;
  for (NodeId v : retry) {
    if (!ReferenceSecureNode(cfg, v, base_logits, opts, scope, &coord,
                            &coord_views, witness, stats)) {
      failed.push_back(v);
    }
  }
  AddEngineDelta(coord.stats() - coord_before, stats);
  std::sort(failed.begin(), failed.end());
  return failed;
}

GenerateResult ReferenceParaGenerateRcw(const WitnessConfig& cfg,
                                        const ParallelOptions& opts,
                                        ParallelStats* stats) {
  RCW_CHECK(cfg.Valid());
  Timer total;
  ParallelStats local_stats;
  ParallelStats* ps = stats != nullptr ? stats : &local_stats;
  *ps = ParallelStats();

  const int n_workers = std::max(1, opts.num_threads);
  Timer part_timer;
  const std::vector<Fragment> fragments =
      EdgeCutPartition(*cfg.graph, n_workers, cfg.hop_radius);
  ps->cut_edges = CutSize(*cfg.graph, fragments);
  ps->partition_seconds = part_timer.Seconds();

  // Edge index for bitmap bookkeeping.
  const std::vector<Edge> all_edges = cfg.graph->Edges();
  std::unordered_map<uint64_t, size_t> edge_index;
  edge_index.reserve(all_edges.size() * 2);
  for (size_t i = 0; i < all_edges.size(); ++i) {
    edge_index[all_edges[i].Key()] = i;
  }

  // Assign test nodes to their owning fragment.
  std::vector<std::vector<NodeId>> nodes_per_fragment(fragments.size());
  for (NodeId v : cfg.test_nodes) {
    for (const auto& fr : fragments) {
      if (fr.owned.Test(static_cast<size_t>(v))) {
        nodes_per_fragment[static_cast<size_t>(fr.id)].push_back(v);
        break;
      }
    }
  }

  const FullView full(cfg.graph);
  const Matrix base_logits =
      cfg.model->BaseLogits(full, cfg.graph->features());

  // -- Parallel phase: each worker secures its own test nodes on a private
  // inference engine (its caches mirror the fragment's working set and need
  // no cross-worker synchronization). ---------------------------------------
  std::vector<WorkerOutput> outputs(fragments.size());
  ThreadPool pool(n_workers);
  for (size_t f = 0; f < fragments.size(); ++f) {
    pool.Submit([&, f] {
      Timer wt;
      WorkerOutput& out = outputs[f];
      out.touched_edges = Bitmap(all_edges.size());
      const Fragment& frag = fragments[f];

      InferenceEngine engine(cfg.model, cfg.graph,
                             EngineOptionsFor(opts.gen));
      const EngineStats engine_before = engine.stats();
      WitnessEngineViews views(&engine);
      engine.Warm(InferenceEngine::kFullView, nodes_per_fragment[f]);

      std::unordered_set<NodeId> halo(frag.nodes_with_halo.begin(),
                                      frag.nodes_with_halo.end());

      // Workers may expand over any edge inside the replicated halo — that
      // is exactly what the "inference preserving partition" ships the halo
      // for: boundary nodes become fully securable without data exchange.
      detail::NodeWorkScope scope;
      scope.allowed_nodes = &halo;

      for (NodeId v : nodes_per_fragment[f]) {
        out.witness.AddNode(v);
        // A node whose search ball stays inside the halo can be fully
        // decided locally (the halo replicates its receptive field).
        const std::vector<NodeId> ball =
            CappedBall(full, v, cfg.hop_radius, cfg.max_ball_nodes);
        bool contained = true;
        for (NodeId u : ball) {
          if (halo.count(u) == 0) {
            contained = false;
            break;
          }
        }
        const bool ok =
            ReferenceSecureNode(cfg, v, base_logits, opts.gen, scope, &engine,
                               &views, &out.witness, &out.stats);
        if (!ok) {
          // Local scope may simply be too tight; escalate to coordinator.
          out.needs_global.push_back(v);
          continue;
        }
        for (const Edge& e : out.witness.Edges()) {
          auto it = edge_index.find(e.Key());
          if (it != edge_index.end()) out.touched_edges.Set(it->second);
        }
        if (contained) {
          out.secured.push_back(v);
        } else {
          out.needs_global.push_back(v);
        }
      }
      AddEngineDelta(engine.stats() - engine_before, &out.stats);
      out.seconds = wt.Seconds();
    });
  }
  pool.Wait();

  // -- Coordinator phase: merge, synchronize bitmaps, re-secure borders. ---
  Timer coord_timer;
  GenerateResult result;
  Bitmap global_bitmap(all_edges.size());
  std::vector<NodeId> reverify;
  for (auto& out : outputs) {
    for (NodeId u : out.witness.Nodes()) result.witness.AddNode(u);
    for (const Edge& e : out.witness.Edges()) result.witness.AddEdge(e.u, e.v);
    global_bitmap.UnionWith(out.touched_edges);
    ps->bitmap_bytes += static_cast<int64_t>(out.touched_edges.ByteSize());
    reverify.insert(reverify.end(), out.needs_global.begin(),
                    out.needs_global.end());
    AccumulateGen(out.stats, &ps->gen);
    ps->worker_seconds = std::max(ps->worker_seconds, out.seconds);
  }
  std::sort(reverify.begin(), reverify.end());
  ps->coordinator_reverified = static_cast<int>(reverify.size());

  // The coordinator runs its own engine; its cache carries from the border
  // re-securing straight into the CW probe sweep below.
  InferenceEngine coord_engine(cfg.model, cfg.graph,
                               EngineOptionsFor(opts.gen));
  const EngineStats coord_before = coord_engine.stats();
  WitnessEngineViews coord_views(&coord_engine);
  auto finish_coord = [&]() {
    AddEngineDelta(coord_engine.stats() - coord_before, &ps->gen);
    ps->coordinator_seconds = coord_timer.Seconds();
    ps->gen.seconds = total.Seconds();
    result.stats = ps->gen;
  };

  detail::NodeWorkScope global_scope;  // unrestricted
  std::unordered_set<NodeId> unsecured;
  for (NodeId v : reverify) {
    if (!ReferenceSecureNode(cfg, v, base_logits, opts.gen, global_scope,
                            &coord_engine, &coord_views, &result.witness,
                            &ps->gen)) {
      if (opts.gen.skip_unsecurable) {
        unsecured.insert(v);
        continue;
      }
      result.witness = TrivialWitness(*cfg.graph, cfg.test_nodes);
      result.trivial = true;
      finish_coord();
      return result;
    }
  }

  // Coordinator-side verification (Algorithm 3 lines 11-12): nodes whose
  // search ball stayed inside their fragment's halo were verified with the
  // full receptive field and need no re-verification (Lemma 6 transfers any
  // locally-found violation; none was found) — the global bitmap records
  // their disturbances as covered. Only boundary-escalated nodes are swept.
  std::unordered_set<NodeId> locally_verified;
  for (const auto& out : outputs) {
    locally_verified.insert(out.secured.begin(), out.secured.end());
  }
  // Merging witnesses is monotone, but a union edge landing inside another
  // node's receptive field can in principle perturb its factual check; a
  // two-inference CW probe per node catches that cheaply and demotes the
  // node into the sweep. The probe runs on the merged witness's view slots,
  // warmed once for all probed nodes (three batched inferences instead of
  // three per node).
  {
    coord_views.Sync(result.witness);
    std::vector<NodeId> probed(locally_verified.begin(),
                               locally_verified.end());
    std::sort(probed.begin(), probed.end());
    PipelinedProbeWarm(&coord_engine, &coord_views, probed);
    for (NodeId v : probed) {
      const Label l = coord_engine.Predict(InferenceEngine::kFullView, v);
      const bool cw_ok =
          coord_engine.Predict(coord_views.sub_id(), v) == l &&
          coord_engine.Predict(coord_views.removed_id(), v) != l;
      if (!cw_ok) locally_verified.erase(v);
    }
  }
  for (NodeId v : cfg.test_nodes) {
    if (unsecured.count(v) > 0) continue;
    if (locally_verified.count(v) > 0) continue;
    if (!ReferenceSecureNode(cfg, v, base_logits, opts.gen, global_scope,
                            &coord_engine, &coord_views, &result.witness,
                            &ps->gen)) {
      if (opts.gen.skip_unsecurable) {
        unsecured.insert(v);
        continue;
      }
      result.witness = TrivialWitness(*cfg.graph, cfg.test_nodes);
      result.trivial = true;
      break;
    }
  }
  result.unsecured.assign(unsecured.begin(), unsecured.end());
  std::sort(result.unsecured.begin(), result.unsecured.end());

  finish_coord();
  return result;
}

// --- Harness ----------------------------------------------------------------

GenerateResult ReferenceGenerateRcw(const WitnessConfig& cfg) {
  InferenceEngine engine(cfg.model, cfg.graph);
  return ReferenceGenerateRcw(cfg, {}, &engine);
}

VerifyResult ReferenceVerifyRcw(const WitnessConfig& cfg,
                                const Witness& witness) {
  InferenceEngine engine(cfg.model, cfg.graph);
  return ReferenceVerifyRcw(cfg, witness, &engine);
}

std::vector<uint64_t> SortedProtectedPairs(const Witness& w) {
  std::vector<uint64_t> keys(w.protected_pair_keys().begin(),
                             w.protected_pair_keys().end());
  std::sort(keys.begin(), keys.end());
  return keys;
}

void ExpectSameWitness(const Witness& got, const Witness& want,
                       const std::string& what) {
  EXPECT_EQ(got.Nodes(), want.Nodes()) << what;
  EXPECT_EQ(got.Edges(), want.Edges()) << what;
  EXPECT_EQ(SortedProtectedPairs(got), SortedProtectedPairs(want)) << what;
}

void ExpectSameGeneration(const GenerateResult& got,
                          const GenerateResult& want, const std::string& what) {
  ExpectSameWitness(got.witness, want.witness, what);
  EXPECT_EQ(got.unsecured, want.unsecured) << what;
  EXPECT_EQ(got.trivial, want.trivial) << what;
  EXPECT_EQ(got.stats.secure_rounds, want.stats.secure_rounds) << what;
  EXPECT_EQ(got.stats.expand_rounds, want.stats.expand_rounds) << what;
}

void ExpectSameVerdict(const VerifyResult& got, const VerifyResult& want,
                       const std::string& what) {
  EXPECT_EQ(got.ok, want.ok) << what;
  EXPECT_EQ(got.reason, want.reason) << what;
  EXPECT_EQ(got.failed_node, want.failed_node) << what;
  EXPECT_EQ(got.counterexample, want.counterexample) << what;
}

struct ModelCase {
  const char* name;
  std::function<std::unique_ptr<GnnModel>(const Graph&)> make;
};

std::vector<ModelCase> Models() {
  TrainOptions quick;
  quick.epochs = 60;
  quick.hidden_dims = {8, 8};
  const auto train = [](const Graph& g) { return SampleTrainNodes(g, 0.5, 1); };
  return {
      {"GCN",
       [=](const Graph& g) -> std::unique_ptr<GnnModel> {
         return TrainGcn(g, train(g), quick);
       }},
      {"GIN",
       [=](const Graph& g) -> std::unique_ptr<GnnModel> {
         return TrainGin(g, train(g), quick);
       }},
      {"SAGE",
       [=](const Graph& g) -> std::unique_ptr<GnnModel> {
         return TrainSage(g, train(g), quick);
       }},
      {"GAT",
       [](const Graph& g) -> std::unique_ptr<GnnModel> {
         return MakeRandomGat(g.num_features(), 8, g.num_classes(), 7);
       }},
      {"APPNP",
       [=](const Graph& g) -> std::unique_ptr<GnnModel> {
         return TrainAppnp(g, train(g), quick);
       }},
  };
}

// A random 4-class SBM: larger balls and more contrast classes than the
// two-community fixture.
Graph RandomSbm() {
  SbmOptions opts;
  opts.num_nodes = 120;
  opts.num_classes = 4;
  opts.feature_dim = 32;
  opts.seed = 5;
  return MakeSbmGraph(opts);
}

// Test nodes whose witnesses mean something: neighbourhood-driven
// predictions where the model has them, else correct ones.
std::vector<NodeId> TestNodes(const GnnModel& model, const Graph& g,
                              int count) {
  std::vector<NodeId> nodes =
      SelectExplainableTestNodes(model, g, count, {}, 13);
  if (nodes.size() < 2) nodes = SelectCorrectTestNodes(model, g, count, {}, 13);
  return nodes;
}

WitnessConfig Config(const Graph& g, const GnnModel& model,
                     std::vector<NodeId> nodes, DisturbanceModel mode, int k,
                     int b) {
  WitnessConfig cfg;
  cfg.graph = &g;
  cfg.model = &model;
  cfg.test_nodes = std::move(nodes);
  cfg.disturbance = mode;
  cfg.k = k;
  cfg.local_budget = b;
  cfg.hop_radius = 2;
  return cfg;
}

// Every node's incident edges and nothing else: a witness the adversary
// usually breaks, for the verifier's failure paths.
Witness IncidentWitness(const Graph& g, const std::vector<NodeId>& nodes) {
  Witness w;
  for (NodeId v : nodes) {
    w.AddNode(v);
    for (NodeId u : g.Neighbors(v)) w.AddEdge(v, u);
  }
  return w;
}

class ReferenceRobustness
    : public ::testing::TestWithParam<std::tuple<bool, size_t>> {
 protected:
  void SetUp() override {
    const auto [sbm, model] = GetParam();
    graph_ = std::make_unique<Graph>(sbm ? RandomSbm()
                                         : testing::MakeTwoCommunityGraph());
    model_ = Models()[model].make(*graph_);
    nodes_ = sbm ? TestNodes(*model_, *graph_, 3)
                 : std::vector<NodeId>{1, 4, 7, 10};
    ASSERT_FALSE(nodes_.empty());
  }

  std::unique_ptr<Graph> graph_;
  std::unique_ptr<GnnModel> model_;
  std::vector<NodeId> nodes_;
};

TEST_P(ReferenceRobustness, GenerationAndVerificationMatchTheReference) {
  for (DisturbanceModel mode :
       {DisturbanceModel::kRemovalOnly, DisturbanceModel::kFlip}) {
    for (int k : {1, 3, 20}) {
      for (int b : {1, 2}) {
        const WitnessConfig cfg = Config(*graph_, *model_, nodes_, mode, k, b);
        const std::string what =
            std::string(mode == DisturbanceModel::kFlip ? "flip" : "removal") +
            " k=" + std::to_string(k) + " b=" + std::to_string(b);
        // Generation, then verification of the secured nodes on the
        // generator's warm engine, at the generation budget and the largest
        // one (where the adversary often wins).
        InferenceEngine engine(cfg.model, cfg.graph);
        const GenerateResult got = GenerateRcw(cfg, {}, &engine);
        const GenerateResult want = ReferenceGenerateRcw(cfg);
        ExpectSameGeneration(got, want, what);
        WitnessConfig secured = cfg;
        std::erase_if(secured.test_nodes, [&](NodeId v) {
          return std::count(got.unsecured.begin(), got.unsecured.end(), v) > 0;
        });
        if (secured.test_nodes.empty()) continue;
        ExpectSameVerdict(VerifyRcw(secured, got.witness, &engine),
                          ReferenceVerifyRcw(secured, got.witness), what);
        secured.k = 20;
        ExpectSameVerdict(VerifyRcw(secured, got.witness),
                          ReferenceVerifyRcw(secured, got.witness),
                          what + " verified at k=20");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, ReferenceRobustness,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0, 1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<std::tuple<bool, size_t>>& info) {
      return std::string(std::get<0>(info.param) ? "Sbm" : "TwoCommunity") +
             Models()[std::get<1>(info.param)].name;
    });

TEST(ReferenceRobustnessPara, ParaGenerateRcwMatchesTheReference) {
  for (const testing::TrainedFixture* f :
       {&testing::SmallSbmGcn(), &testing::SmallSbmAppnp()}) {
    const std::vector<NodeId> nodes =
        SelectExplainableTestNodes(*f->model, *f->graph, 6, {}, 33);
    ASSERT_GE(nodes.size(), 3u);
    for (int k : {1, 3}) {
      const WitnessConfig cfg =
          Config(*f->graph, *f->model, nodes, DisturbanceModel::kRemovalOnly,
                 k, 2);
      for (int threads : {2, 4}) {
        ParallelOptions opts;
        opts.num_threads = threads;
        const std::string what = f->model->name() + " k=" +
                                 std::to_string(k) + " threads=" +
                                 std::to_string(threads);
        ExpectSameGeneration(ParaGenerateRcw(cfg, opts),
                             ReferenceParaGenerateRcw(cfg, opts, nullptr),
                             what);
      }
    }
  }
}

TEST(ReferenceRobustnessPara, ParaSecureNodesMatchesTheReference) {
  const auto& f = testing::SmallSbmGcn();
  const std::vector<NodeId> nodes =
      SelectExplainableTestNodes(*f.model, *f.graph, 6, {}, 33);
  const WitnessConfig cfg = Config(*f.graph, *f.model, nodes,
                                   DisturbanceModel::kFlip, 3, 1);
  const Matrix base_logits =
      cfg.model->BaseLogits(FullView(cfg.graph), cfg.graph->features());
  Witness got, want;
  GenerateStats got_stats, want_stats;
  const std::vector<NodeId> got_failed =
      ParaSecureNodes(cfg, nodes, {}, 3, &got, &got_stats);
  const std::vector<NodeId> want_failed = ReferenceParaSecureNodes(
      cfg, nodes, base_logits, {}, 3, &want, &want_stats);
  EXPECT_EQ(got_failed, want_failed);
  ExpectSameWitness(got, want, "ParaSecureNodes");
}

// After each batch of a short update stream, the maintainer's warm engine
// must serve evidence rows equal to BaseLogits on the updated graph bit for
// bit (per-ball invalidation is the only refresh they get), and verify every
// test node as the reference does on a fresh engine.
void CheckMaintainerAgainstReference(const GnnModel& model, int threads) {
  Graph graph = RandomSbm();
  const std::vector<NodeId> nodes = TestNodes(model, graph, 3);
  const WitnessConfig cfg =
      Config(graph, model, nodes, DisturbanceModel::kRemovalOnly, 3, 1);
  MaintainOptions opts;
  opts.num_threads = threads;
  WitnessMaintainer m(&graph, cfg, opts);
  m.Initialize();
  StreamSampleOptions sopts;
  sopts.num_batches = 8;
  sopts.ops_per_batch = 2;
  sopts.insert_fraction = 0.3;
  sopts.focus_nodes = nodes;
  sopts.hop_radius = 2;
  Rng rng(17);
  const auto stream = SampleUpdateStream(graph, sopts, &rng);
  for (size_t b = 0; b < stream.size(); ++b) {
    ASSERT_TRUE(m.Apply(stream[b]).ok()) << "batch " << b;
    const Matrix want_rows = model.BaseLogits(FullView(&graph),
                                              graph.features());
    for (NodeId v : nodes) {
      const std::vector<NodeId> ball =
          cfg.SearchBall(m.engine().full_view(), v);
      const Matrix rows = EvidenceRows(cfg, &m.engine(), ball);
      const size_t bytes = static_cast<size_t>(rows.cols()) * sizeof(double);
      for (size_t i = 0; i < ball.size(); ++i) {
        const double* got = rows.Row(static_cast<int64_t>(i));
        ASSERT_EQ(std::memcmp(got, want_rows.Row(ball[i]), bytes), 0)
            << "batch " << b << " node " << ball[i];
      }
      WitnessConfig one = cfg;
      one.test_nodes = {v};
      ExpectSameVerdict(VerifyRcw(one, m.witness(), &m.engine()),
                        ReferenceVerifyRcw(one, m.witness()),
                        "batch " + std::to_string(b) + " node " +
                            std::to_string(v));
    }
  }
}

TEST(ReferenceRobustnessMaintain, EvidenceAndVerdictsStayFreshGcn) {
  const Graph g = RandomSbm();
  const auto model = Models()[0].make(g);
  CheckMaintainerAgainstReference(*model, 1);
  CheckMaintainerAgainstReference(*model, 2);
}

TEST(ReferenceRobustnessMaintain, EvidenceAndVerdictsStayFreshAppnp) {
  const Graph g = RandomSbm();
  const auto model = Models()[4].make(g);
  CheckMaintainerAgainstReference(*model, 1);
}

// Evidence is read through kFullView, which a fragment-shard engine binds to
// its fragment: the entry points refuse such an engine.
TEST(WholeGraphEngineDeath, EntryPointsRejectAFragmentEngine) {
  const auto& f = testing::TwoCommunityGcn();
  const FullView full(f.graph.get());
  const OverlayView fragment(&full, {Edge(0, 1)});
  InferenceEngine engine(f.model.get(), f.graph.get(), &fragment);
  const WitnessConfig cfg = Config(*f.graph, *f.model, {1, 4},
                                   DisturbanceModel::kRemovalOnly, 1, 1);
  const Witness w = IncidentWitness(*f.graph, cfg.test_nodes);
  EXPECT_DEATH(GenerateRcw(cfg, {}, &engine), "whole-graph engine");
  EXPECT_DEATH(VerifyRcw(cfg, w, &engine), "whole-graph engine");
  WitnessEngineViews views(&engine);
  Witness out;
  GenerateStats stats;
  EXPECT_DEATH(
      detail::SecureNode(cfg, 1, {}, {}, &engine, &views, &out, &stats),
      "whole-graph engine");
}

}  // namespace
}  // namespace robogexp
