// Edge-cut graph partitioning with L-hop halo duplication, the "inference
// preserving partition" of Sec. VI: every border node's L-hop neighborhood is
// replicated into the fragment so that local inference and local disturbance
// verification need no data exchange.
#ifndef ROBOGEXP_GRAPH_PARTITION_H_
#define ROBOGEXP_GRAPH_PARTITION_H_

#include <vector>

#include "src/graph/view.h"
#include "src/util/bitmap.h"

namespace robogexp {

/// One fragment of an edge-cut partition.
struct Fragment {
  int id = 0;
  /// Nodes owned by this fragment (disjoint across fragments, covering V).
  std::vector<NodeId> owned_nodes;
  /// Owned nodes plus the replicated L-hop halo.
  std::vector<NodeId> nodes_with_halo;
  /// Edges owned by this fragment: an edge belongs to the fragment owning its
  /// smaller endpoint. Disjoint across fragments, covering E.
  std::vector<Edge> owned_edges;
  /// owned-node membership bitmap over all of V.
  Bitmap owned;
};

/// Partitions `graph` into `num_fragments` fragments via BFS-grown regions
/// (keeps fragments locally contiguous, approximating a low edge-cut), then
/// replicates an `halo_hops`-hop halo around every owned node. With the
/// default `seed` of 0, regions grow from the lowest-id unassigned node
/// (the historical deterministic behavior); a non-zero seed draws the region
/// seeds pseudo-randomly instead, producing a different — but still
/// deterministic and invariant-preserving — partition per seed (the
/// randomized-partition knob of the sharded-serving equivalence suites).
std::vector<Fragment> EdgeCutPartition(const Graph& graph, int num_fragments,
                                       int halo_hops, uint64_t seed = 0);

/// Number of cut edges (endpoints owned by different fragments).
int64_t CutSize(const Graph& graph, const std::vector<Fragment>& fragments);

/// fragment id owning each node (size |V|), derived from `fragments`.
std::vector<int> FragmentOwners(NodeId num_nodes,
                                const std::vector<Fragment>& fragments);

/// Fragment-local serving view: the base graph restricted to one fragment's
/// halo node set. This is the paper's replicated fragment data as a
/// GraphView — node ids stay global, `Degree` reports the *whole-graph*
/// degree of every halo node (degree counts are part of the replicated
/// border metadata; normalization must see true degrees), and neighbor
/// lists are the base lists filtered to halo members in base order.
///
/// Inference-preservation contract: for an L-layer message-passing model and
/// a fragment built with `halo_hops >= L`, every owned node's L-hop BFS ball
/// and every forward read over that ball are identical on this view and
/// on the whole graph — each path of length <= L from an owned node stays
/// inside the halo, so no neighbor visible to the computation is filtered
/// out. Per-fragment inference of owned nodes is therefore bit-identical to
/// whole-graph inference, which is what lets a shard serve its border nodes
/// locally (src/serve/shard_registry.h).
///
/// Nodes outside the halo have no replicated data: degree 0, no edges.
class FragmentView final : public GraphView {
 public:
  /// `graph` must outlive the view; `fragment` is copied into membership.
  FragmentView(const Graph* graph, const Fragment& fragment);

  NodeId num_nodes() const override { return graph_->num_nodes(); }
  int Degree(NodeId u) const override {
    return Member(u) ? graph_->Degree(u) : 0;
  }
  bool HasEdge(NodeId u, NodeId v) const override {
    return Member(u) && Member(v) && graph_->HasEdge(u, v);
  }
  void AppendNeighbors(NodeId u, std::vector<NodeId>* out) const override;
  int64_t CountEdges() const override;

  /// True when `u` is replicated into this fragment (owned or halo).
  bool Member(NodeId u) const {
    return graph_->ValidNode(u) && member_.Test(static_cast<size_t>(u));
  }

  const Graph* graph() const { return graph_; }

 private:
  const Graph* graph_;
  Bitmap member_;  // nodes_with_halo membership over all of V
};

}  // namespace robogexp

#endif  // ROBOGEXP_GRAPH_PARTITION_H_
