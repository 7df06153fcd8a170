/// \file
/// InferenceEngine — the batching + caching layer between the explainer's
/// expand–secure–verify loop and GnnModel inference.
///
/// The paper's dominant cost is GNN inference (its efficiency figures count
/// inference calls), and the loop's access pattern is extremely repetitive:
/// the full view G rarely changes, the witness views Gs and G ∖ Gs only
/// change when the witness mutates, and verification asks for the same
/// per-node logits over and over. The engine exploits that shape:
///
///  - per-(view, node) logit memoization behind caller-managed view slots,
///    with explicit invalidation when a view's edge set changes — whole-view
///    via Bind()/Invalidate(), or per-ball via InvalidateNodes() when a
///    streaming update touches only part of the base graph;
///  - batched misses: Warm() serves many nodes on one view with a single
///    GnnModel::InferNodes call (one forward over the union of the
///    receptive balls) instead of one call per node; WarmOverlay() is the
///    same batched path for a tentative disturbance overlay;
///  - honest accounting: stats() separates logical node queries from actual
///    model invocations, so call-reduction claims are measurable.
///
/// Cached and uncached paths are bit-identical: the union-ball batch computes
/// exactly the same floating-point values as per-node InferNode (see
/// GnnModel::InferNodes), so enabling the cache can never change a witness.
///
/// Thread safety: all public methods are safe to call concurrently (the
/// parallel RCW verifier queries logits from ThreadPool workers, and the
/// async batching front of src/serve flushes coalesced demand from pool
/// workers). Cached logits are held behind shared_ptr so a hit only copies
/// the vector after the lock is released; the model invocation itself runs
/// outside the lock, and two threads racing on the same missing node may
/// both compute it — identical values, idempotent insert.
#ifndef ROBOGEXP_GNN_ENGINE_H_
#define ROBOGEXP_GNN_ENGINE_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/gnn/model.h"
#include "src/graph/graph.h"

namespace robogexp {

struct EngineOptions {
  /// Memoize per-(view, node) logits. Off = every query hits the model
  /// (the pre-engine behavior, kept as the benchmark baseline).
  bool cache = true;
  /// Serve multi-node cache misses with one batched InferNodes call.
  bool batch = true;
  /// Bound on cached overlay node-entries. When an insert would exceed it,
  /// the oldest flip-sets (FIFO by first insertion) are evicted until the
  /// cache fits again, so a long stream keeps its hot disturbances warm
  /// instead of losing the whole overlay cache at once.
  size_t max_overlay_entries = 1 << 16;
};

struct EngineStats {
  /// Logical single-node logit requests served (hits + misses).
  int64_t node_queries = 0;
  /// Requests answered from the cache.
  int64_t cache_hits = 0;
  /// Actual GnnModel inference invocations issued (InferNode / InferNodes /
  /// ephemeral-view predictions). This is the paper's "inference calls"
  /// cost; the cached-vs-uncached delta is the engine's win.
  int64_t model_invocations = 0;
  /// Nodes served by batched invocations (ratio to model_invocations shows
  /// the batching factor).
  int64_t batched_nodes = 0;
};

/// Accumulation — the unit sharded serving aggregates per-shard work in.
inline EngineStats& operator+=(EngineStats& a, const EngineStats& b) {
  a.node_queries += b.node_queries;
  a.cache_hits += b.cache_hits;
  a.model_invocations += b.model_invocations;
  a.batched_nodes += b.batched_nodes;
  return a;
}

/// Work delta (after - before), the unit every cost report is built from.
inline EngineStats operator-(const EngineStats& after,
                             const EngineStats& before) {
  EngineStats d;
  d.node_queries = after.node_queries - before.node_queries;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.model_invocations = after.model_invocations - before.model_invocations;
  d.batched_nodes = after.batched_nodes - before.batched_nodes;
  return d;
}

class InferenceEngine {
 public:
  using ViewId = int;
  /// Slot 0 is always the unmodified base graph.
  static constexpr ViewId kFullView = 0;

  /// Canonical content identity of a flip set: sorted, deduplicated pair
  /// keys. OverlayView ignores repeated occurrences of a pair (the first
  /// flip sticks), so dedup — not parity cancellation — is the identity that
  /// matches building an OverlayView from the flips directly. Shared with
  /// the async batching front, which coalesces overlay demand by the same
  /// key.
  static std::vector<uint64_t> CanonicalFlipKeys(
      const std::vector<Edge>& flips);

  /// Hash for canonical flip-key vectors (FNV-1a over the keys).
  struct FlipKeyHash {
    size_t operator()(const std::vector<uint64_t>& keys) const {
      uint64_t h = 1469598103934665603ull;
      for (uint64_t k : keys) {
        h ^= k;
        h *= 1099511628211ull;
      }
      return static_cast<size_t>(h);
    }
  };

  /// `model` and `graph` must outlive the engine. Features are taken from
  /// the graph.
  InferenceEngine(const GnnModel* model, const Graph* graph,
                  const EngineOptions& opts = {});

  /// Fragment-shard variant: slot kFullView (and the base of every
  /// content-addressed overlay) is `base_view` instead of the whole graph.
  /// `graph` still supplies features and the global id space; `base_view`
  /// must outlive the engine. This is how a GraphShard serves a partition
  /// fragment: its engine sees only the replicated fragment data, yet — for
  /// receptive-field-local models with a sufficient halo — computes logits
  /// bit-identical to a whole-graph engine (see FragmentView).
  InferenceEngine(const GnnModel* model, const Graph* graph,
                  const GraphView* base_view, const EngineOptions& opts = {});

  const GnnModel& model() const { return *model_; }
  const Graph& graph() const { return *graph_; }
  /// The kFullView binding: the whole graph, or the shard's base view.
  const GraphView& base_view() const { return *base_; }
  const FullView& full_view() const { return full_; }
  const EngineOptions& options() const { return opts_; }

  /// Binds a new cache slot to `view`. The view must stay alive and
  /// unchanged until the slot is released or rebound; mutate-and-reuse
  /// requires Bind() (which drops the slot's cached logits).
  ViewId Register(const GraphView* view);

  /// Rebinds `id` to `view` and invalidates its cached logits. Call this
  /// whenever the underlying edge set changed (e.g. the witness mutated).
  /// When `view` replaces another view, returns once no model invocation
  /// reads the old one any more, so its owner may destroy it.
  void Bind(ViewId id, const GraphView* view);

  /// Drops the slot's cached logits, keeping the binding.
  void Invalidate(ViewId id);

  /// Drops the cached logits of exactly `nodes` on slot `id`, keeping every
  /// other entry warm. This is the targeted (per-ball, not whole-view)
  /// invalidation used by streaming maintenance: after an in-place base-graph
  /// update, only nodes whose receptive ball intersects the update are stale.
  /// The slot's view must still describe the post-update edge set (FullView
  /// reads the mutated Graph in place). No-op on released/unknown ids.
  void InvalidateNodes(ViewId id, const std::vector<NodeId>& nodes);

  /// Drops the cached overlay logits of `nodes` across every
  /// content-addressed flip set (the overlays are keyed relative to the base
  /// graph, so an in-place base update makes the touched balls stale under
  /// every cached disturbance).
  void InvalidateOverlayNodes(const std::vector<NodeId>& nodes);

  /// Drops the entire content-addressed overlay cache. The full-invalidation
  /// escalation for models whose inference is NOT receptive-field-local
  /// (APPNP's PPR push): a base-graph update can move their logits anywhere,
  /// so no per-ball subset of the overlay entries is provably fresh.
  void InvalidateOverlays();

  /// Unbinds the slot (safe to call before the view's lifetime ends; the
  /// slot id is not reused). Returns once no model invocation reads the
  /// view any more.
  void Release(ViewId id);

  /// Logits of node `v` on the slot's view; memoized.
  std::vector<double> Logits(ViewId id, NodeId v);

  /// Argmax label of Logits(id, v).
  Label Predict(ViewId id, NodeId v);

  /// Logits(id, u) for each of `nodes`, one row per node in order, after
  /// one Warm(). An uncached engine serves them with one batched invocation.
  Matrix LogitRows(ViewId id, const std::vector<NodeId>& nodes);

  /// Ensures logits for all `nodes` are cached on slot `id`, serving the
  /// misses with one batched model invocation. No-op when caching is off
  /// (the baseline then pays per-query, exactly like the pre-engine code).
  void Warm(ViewId id, const std::vector<NodeId>& nodes);

  /// Ensures overlay logits of `nodes` under G ⊕ `flips` are cached, serving
  /// the misses with one batched model invocation on the overlay view (the
  /// overlay sibling of Warm(), used by the async batching front to flush
  /// coalesced disturbance demand). Bit-identical to per-node LogitsOverlay;
  /// no-op when caching is off.
  void WarmOverlay(const std::vector<Edge>& flips,
                   const std::vector<NodeId>& nodes);

  /// One-shot inference on an ephemeral view (a tentative disturbance that
  /// will never be queried again); never cached, always counted.
  std::vector<double> LogitsOn(const GraphView& view, NodeId v);
  Label PredictOn(const GraphView& view, NodeId v);

  /// Memoized inference on a tentative overlay of the base graph (G ⊕
  /// flips). Content-addressed: CanonicalFlipKeys(flips) is the cache key,
  /// so re-checking the same disturbance — across secure rounds, fixpoint
  /// passes, or a verification following generation on a shared engine — is
  /// a cache hit. Exact: keys compare the full flip set, no hashing
  /// shortcuts.
  std::vector<double> LogitsOverlay(const std::vector<Edge>& flips, NodeId v);
  Label PredictOverlay(const std::vector<Edge>& flips, NodeId v);

  EngineStats stats() const;

  /// RAII registration for stack-scoped views.
  class ScopedView {
   public:
    ScopedView(InferenceEngine* engine, const GraphView* view)
        : engine_(engine), id_(engine->Register(view)) {}
    ~ScopedView() { engine_->Release(id_); }
    ScopedView(const ScopedView&) = delete;
    ScopedView& operator=(const ScopedView&) = delete;
    ViewId id() const { return id_; }

   private:
    InferenceEngine* engine_;
    ViewId id_;
  };

 private:
  /// Cached logits are shared so a hit copies the vector outside the engine
  /// lock (the map entry may be rehashed or erased concurrently; the
  /// shared_ptr keeps the value alive without holding mu_).
  using LogitsPtr = std::shared_ptr<const std::vector<double>>;

  struct Slot {
    const GraphView* view = nullptr;
    std::unordered_map<NodeId, LogitsPtr> logits;
  };

  const GraphView* ViewOf(ViewId id) const;

  /// Ends one read counted in readers_. Caller holds mu_.
  void EndReadLocked(const GraphView* view);

  /// One InferNodes over `nodes` on slot `id`'s view, counted as a batched
  /// model invocation plus `queries` node queries; `*view` is the view read.
  Matrix InferBatch(ViewId id, const std::vector<NodeId>& nodes,
                    int64_t queries, const GraphView** view);

  /// Rebuilds the overlay edge list from a canonical key vector.
  static std::vector<Edge> EdgesOfKeys(const std::vector<uint64_t>& keys);

  /// Evicts the oldest overlay flip-sets (insertion FIFO) until `incoming`
  /// new entries fit under max_overlay_entries. Caller holds mu_.
  void EvictOverlayForInsertLocked(size_t incoming);

  const GnnModel* model_;
  const Graph* graph_;
  FullView full_;
  /// Base view bound to kFullView and used as every overlay's base: &full_
  /// for whole-graph engines, the caller's view for fragment shards.
  const GraphView* base_;
  EngineOptions opts_;

  /// One content-addressed overlay entry set. The stamp is drawn fresh each
  /// time a flip set's map is (re)created, so FIFO eviction can tell a live
  /// set from a stale queue entry left behind by InvalidateOverlayNodes —
  /// without it, a set invalidated and later re-warmed would be evicted at
  /// its *original* queue position, dropping a hot set while older ones
  /// survive.
  struct OverlaySet {
    uint64_t stamp = 0;
    std::unordered_map<NodeId, LogitsPtr> logits;
  };

  mutable std::mutex mu_;
  std::unordered_map<ViewId, Slot> slots_;
  /// Views model invocations read outside mu_, with their reader counts;
  /// Bind() and Release() wait on readers_done_ until the view they unbind
  /// has none.
  std::unordered_map<const GraphView*, int> readers_;
  std::condition_variable readers_done_;
  std::unordered_map<std::vector<uint64_t>, OverlaySet, FlipKeyHash>
      overlay_cache_;
  /// (flip-set key, creation stamp) in insertion order — the FIFO eviction
  /// queue. Entries whose stamp no longer matches the live set are stale
  /// (the set was invalidated, and possibly re-created since) and are
  /// skipped by eviction.
  std::deque<std::pair<std::vector<uint64_t>, uint64_t>> overlay_fifo_;
  uint64_t overlay_stamp_ = 0;
  size_t overlay_entries_ = 0;
  ViewId next_id_ = 1;
  EngineStats stats_;
};

}  // namespace robogexp

#endif  // ROBOGEXP_GNN_ENGINE_H_
