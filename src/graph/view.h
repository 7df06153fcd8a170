// Graph views: cheap O(changes) overlays over an immutable base graph.
//
// The paper never materializes modified graphs: G \ Gs (witness removed),
// a disturbed ~G, ~G \ Gs, and the witness subgraph itself are all "tentative"
// modifications ("we do not explicitly remove the edges and change G, but
// reflect the tentative disturbing by computing A'", Sec. III-B). Views make
// every such graph an O(#changes) object, and all inference code is written
// against the GraphView interface.
#ifndef ROBOGEXP_GRAPH_VIEW_H_
#define ROBOGEXP_GRAPH_VIEW_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/graph/graph.h"

namespace robogexp {

/// Read-only interface over an (undirected) graph.
class GraphView {
 public:
  virtual ~GraphView() = default;

  virtual NodeId num_nodes() const = 0;
  virtual int Degree(NodeId u) const = 0;
  virtual bool HasEdge(NodeId u, NodeId v) const = 0;

  /// Appends u's neighbors to *out (does not clear it).
  virtual void AppendNeighbors(NodeId u, std::vector<NodeId>* out) const = 0;

  /// Convenience: returns a fresh neighbor vector.
  std::vector<NodeId> Neighbors(NodeId u) const {
    std::vector<NodeId> out;
    AppendNeighbors(u, &out);
    return out;
  }

  /// Total number of (undirected) edges; O(V) default implementation.
  virtual int64_t CountEdges() const;
};

/// The unmodified base graph.
class FullView final : public GraphView {
 public:
  explicit FullView(const Graph* graph) : graph_(graph) {
    RCW_CHECK(graph != nullptr);
  }

  NodeId num_nodes() const override { return graph_->num_nodes(); }
  int Degree(NodeId u) const override { return graph_->Degree(u); }
  bool HasEdge(NodeId u, NodeId v) const override {
    return graph_->HasEdge(u, v);
  }
  void AppendNeighbors(NodeId u, std::vector<NodeId>* out) const override {
    const auto& nbrs = graph_->Neighbors(u);
    out->insert(out->end(), nbrs.begin(), nbrs.end());
  }
  int64_t CountEdges() const override { return graph_->num_edges(); }

  const Graph* graph() const { return graph_; }

 private:
  const Graph* graph_;
};

/// Base view with a set of node pairs toggled: pairs present in the base are
/// removed, absent pairs are inserted. This is exactly the paper's
/// k-disturbance "flip" semantics; with removals only it also implements
/// G ∖ Gs.
class OverlayView final : public GraphView {
 public:
  /// `flips` toggles each listed pair relative to `base`.
  OverlayView(const GraphView* base, const std::vector<Edge>& flips);

  NodeId num_nodes() const override { return base_->num_nodes(); }
  int Degree(NodeId u) const override;
  bool HasEdge(NodeId u, NodeId v) const override;
  void AppendNeighbors(NodeId u, std::vector<NodeId>* out) const override;
  int64_t CountEdges() const override;

  int64_t num_insertions() const { return num_insertions_; }
  int64_t num_removals() const { return num_removals_; }

 private:
  const GraphView* base_;
  // Per-node deltas; only nodes touched by a flip appear in the maps.
  std::unordered_map<NodeId, std::vector<NodeId>> added_;
  std::unordered_map<NodeId, std::vector<NodeId>> removed_;
  std::unordered_set<uint64_t> removed_keys_;
  std::unordered_set<uint64_t> added_keys_;
  int64_t num_insertions_ = 0;
  int64_t num_removals_ = 0;
};

/// A view that contains only a given set of edges (all base nodes exist, but
/// only listed edges are present). Used for the witness subgraph Gs when
/// evaluating the factual condition M(v, Gs).
class EdgeSubsetView final : public GraphView {
 public:
  EdgeSubsetView(NodeId num_nodes, const std::vector<Edge>& edges);

  NodeId num_nodes() const override { return num_nodes_; }
  int Degree(NodeId u) const override;
  bool HasEdge(NodeId u, NodeId v) const override {
    return edge_keys_.count(PairKey(u, v)) > 0;
  }
  void AppendNeighbors(NodeId u, std::vector<NodeId>* out) const override;
  int64_t CountEdges() const override {
    return static_cast<int64_t>(edge_keys_.size());
  }

 private:
  NodeId num_nodes_;
  std::unordered_map<NodeId, std::vector<NodeId>> adj_;
  std::unordered_set<uint64_t> edge_keys_;
};

/// Collects the ball of nodes within `hops` of `center` under `view`
/// (including `center`), in deterministic BFS order: by nondecreasing
/// distance, so the nodes within h hops are a prefix. With `hop_ends`, also
/// stores the hop boundaries: hops + 1 entries, (*hop_ends)[h] counting the
/// ball's leading entries within h hops.
std::vector<NodeId> KHopBall(const GraphView& view, NodeId center, int hops,
                             std::vector<size_t>* hop_ends = nullptr);

/// Multi-source variant: ball around a set of seeds, the distinct seeds first
/// in listed order; aborts unless every seed is a node of `view`. With
/// `max_nodes` > 0 the search stops as soon as the ball holds that many
/// nodes; `hop_ends` then counts the entries returned.
std::vector<NodeId> KHopBall(const GraphView& view,
                             const std::vector<NodeId>& seeds, int hops,
                             int max_nodes = 0,
                             std::vector<size_t>* hop_ends = nullptr);

/// All edges of `view` with both endpoints inside `nodes`.
std::vector<Edge> InducedEdges(const GraphView& view,
                               const std::vector<NodeId>& nodes);

/// True when every node is reachable from node 0 (connectivity check used by
/// dataset generators).
bool IsConnected(const GraphView& view);

}  // namespace robogexp

#endif  // ROBOGEXP_GRAPH_VIEW_H_
