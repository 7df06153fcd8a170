#include "src/explain/para.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace robogexp {

namespace {

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

}  // namespace

std::vector<NodeId> ParaSecureNodes(const WitnessConfig& cfg,
                                    const std::vector<NodeId>& nodes,
                                    const GenerateOptions& opts,
                                    int num_threads, Witness* witness,
                                    GenerateStats* stats) {
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
          if (!detail::SecureNode(cfg, nodes[i], opts, scope, &engine, &views,
                                  &locals[gi], &local_stats[gi])) {
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
    if (!detail::SecureNode(cfg, v, opts, scope, &coord, &coord_views, witness,
                            stats)) {
      failed.push_back(v);
    }
  }
  AddEngineDelta(coord.stats() - coord_before, stats);
  std::sort(failed.begin(), failed.end());
  return failed;
}

GenerateResult ParaGenerateRcw(const WitnessConfig& cfg,
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
      // The evidence balls hold the nodes, so the second warm hits unless
      // the model's evidence is not engine rows (APPNP).
      WarmEvidence(cfg, &engine, nodes_per_fragment[f]);
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
        const std::vector<NodeId> ball = cfg.SearchBall(full, v);
        bool contained = true;
        for (NodeId u : ball) {
          if (halo.count(u) == 0) {
            contained = false;
            break;
          }
        }
        const bool ok = detail::SecureNode(cfg, v, opts.gen, scope, &engine,
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
  WarmEvidence(cfg, &coord_engine, reverify);
  for (NodeId v : reverify) {
    if (!detail::SecureNode(cfg, v, opts.gen, global_scope, &coord_engine,
                            &coord_views, &result.witness, &ps->gen)) {
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
    if (!detail::SecureNode(cfg, v, opts.gen, global_scope, &coord_engine,
                            &coord_views, &result.witness, &ps->gen)) {
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

}  // namespace robogexp
