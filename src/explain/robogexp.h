// RoboGExp (Algorithm 2) — expand-verify generation of k-robust
// counterfactual witnesses.
//
// For each test node (processed "one node at a time", prioritized by
// prediction margin) the generator:
//   1. Expansion: grows Gs with the edges that carry the most class-l
//      evidence toward v (policy-iteration scores on the PPR value vector of
//      r = Z_{:,l} on v's search ball, EvidenceRows in verify.h) until Gs
//      is a counterfactual witness for v — the edges whose removal drains
//      v's evidence are exactly the edges that make G \ Gs lose the label.
//   2. Securing: runs VerifyRcw's PRI units (Algorithm 1) to find the
//      worst-case (k, b)-disturbance; whenever a disturbance disproves
//      robustness, the offending node pairs are absorbed into Gs ("secured"
//      — a disturbance may not flip pairs of Gw), and the loop repeats.
// If a node cannot be secured the algorithm degrades to the trivial witness
// G, exactly as Algorithm 2 returns G on verification failure.
#ifndef ROBOGEXP_EXPLAIN_ROBOGEXP_H_
#define ROBOGEXP_EXPLAIN_ROBOGEXP_H_

#include "src/explain/verify.h"
#include "src/explain/witness.h"

namespace robogexp {

struct GenerateOptions {
  /// Edges added to Gs per expansion step.
  int expand_batch = 2;
  /// Cap on expansion steps per test node.
  int max_expand_rounds = 60;
  /// Cap on secure-verify rounds per test node.
  int max_secure_rounds = 15;
  /// Edges of a violating disturbance absorbed into Gs per secure round
  /// (PRI orders them by adversarial impact; blocking the top few usually
  /// neutralizes the disturbance and keeps the witness concise).
  int secure_batch = 2;
  /// After a node becomes a CW, greedily drop expansion edges that are not
  /// needed to keep the CW conditions (the per-node minimality pass; the
  /// paper lists minimum explanations as future work, this is the greedy
  /// approximation).
  bool trim = true;
  /// Some test nodes admit no non-trivial k-RCW (e.g. the prediction is
  /// carried by the node's own features, so no edge removal is
  /// counterfactual — the paper observes exactly this as the reason its
  /// Fidelity scores are not the theoretical optimum). When true, such nodes
  /// are reported in GenerateResult::unsecured and skipped; when false, the
  /// generator falls back to the trivial witness G (Algorithm 2 verbatim).
  bool skip_unsecurable = true;
  /// Memoize + batch GNN inference through the InferenceEngine. Off runs
  /// the engine in pass-through mode (every logical query hits the model) —
  /// the measured baseline of bench_engine_cache; witnesses are bit-identical
  /// either way.
  bool cache_inference = true;
  bool verbose = false;
};

struct GenerateStats {
  /// Actual GNN inference invocations issued (engine model invocations;
  /// cache hits are free, batched warms count once).
  int inference_calls = 0;
  /// PRI searches: every unit of every secure round, all of which run.
  int pri_calls = 0;
  int expand_rounds = 0;
  int secure_rounds = 0;
  /// Logical single-node inference requests served by the engine.
  int64_t node_queries = 0;
  /// Requests answered from the engine's per-(view, node) cache.
  int64_t cache_hits = 0;
  /// Nodes served by batched (union-ball) inference invocations.
  int64_t batched_nodes = 0;
  double seconds = 0.0;
};

/// EngineOptions implied by generation options — caching and batching ride
/// the same switch (the single place this mapping lives; used by the
/// sequential generator, paraRoboGExp workers, and the stream maintainer).
inline EngineOptions EngineOptionsFor(const GenerateOptions& opts) {
  EngineOptions eopts;
  eopts.cache = opts.cache_inference;
  eopts.batch = opts.cache_inference;
  return eopts;
}

/// Folds an engine-work delta (EngineStats after - before) into generation
/// stats — the single place the EngineStats → GenerateStats mapping lives.
inline void AddEngineDelta(const EngineStats& d, GenerateStats* stats) {
  stats->inference_calls += static_cast<int>(d.model_invocations);
  stats->node_queries += d.node_queries;
  stats->cache_hits += d.cache_hits;
  stats->batched_nodes += d.batched_nodes;
}

struct GenerateResult {
  Witness witness;
  /// True when generation fell back to the trivial witness G.
  bool trivial = false;
  /// Test nodes for which no non-trivial k-RCW was found (only populated
  /// when GenerateOptions::skip_unsecurable is set).
  std::vector<NodeId> unsecured;
  GenerateStats stats;
};

/// Generates a k-RCW for cfg.test_nodes (sequential RoboGExp).
GenerateResult GenerateRcw(const WitnessConfig& cfg,
                           const GenerateOptions& opts = {});

/// Engine-threading overload: runs on a caller-owned engine, which must
/// serve the whole graph on kFullView, so its cache (base labels, evidence
/// rows, witness-view logits) is shared with surrounding work, e.g. a
/// verification pass. Stats report the engine work of this call only.
GenerateResult GenerateRcw(const WitnessConfig& cfg,
                           const GenerateOptions& opts,
                           InferenceEngine* engine);

namespace detail {

/// Optional restriction of the expansion search (used by paraRoboGExp to
/// confine workers to their fragment).
struct NodeWorkScope {
  /// When non-null, expansion candidates must have their key in this set.
  const std::unordered_set<uint64_t>* allowed_edges = nullptr;
  /// When non-null, expansion candidates must have both endpoints in this
  /// set (paraRoboGExp passes the fragment's halo: the replicated L-hop
  /// neighborhood makes boundary nodes fully securable worker-side).
  const std::unordered_set<NodeId>* allowed_nodes = nullptr;
};

/// Expand-and-secure for a single test node; grows *gs in place. Returns
/// false when the node cannot be made CW / robust within the scope and caps.
/// Inference and evidence go through `engine` (whole graph on kFullView);
/// `views` tracks the witness-derived view slots (invalidated on every
/// witness mutation). Each secure round runs CheckRobustness for v, adding
/// its units to stats->pri_calls. inference_calls / cache_hits are NOT
/// accumulated into *stats — callers report them from the engine's delta.
bool SecureNode(const WitnessConfig& cfg, NodeId v, const GenerateOptions& opts,
                const NodeWorkScope& scope, InferenceEngine* engine,
                WitnessEngineViews* views, Witness* gs, GenerateStats* stats);

/// Test nodes ordered by ascending prediction margin (the paper's
/// prioritization processes nodes "unlikely to have labels changed" last).
/// The engine overload serves margins from the cached base logits (one
/// batched inference for all misses).
std::vector<NodeId> PrioritizeTestNodes(const WitnessConfig& cfg);
std::vector<NodeId> PrioritizeTestNodes(const WitnessConfig& cfg,
                                        InferenceEngine* engine);

}  // namespace detail

/// The trivial witness: all of G (fallback of Algorithm 2).
Witness TrivialWitness(const Graph& graph,
                       const std::vector<NodeId>& test_nodes);

}  // namespace robogexp

#endif  // ROBOGEXP_EXPLAIN_ROBOGEXP_H_
