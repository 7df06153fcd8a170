// LocalSubgraph — a node subset of a GraphView under dense local ids, with a
// CSR of each member's neighbours inside the subset. The GNN forwards, PPR
// solves, PRI and edge ranking build one per call instead of hashing global
// ids per edge. Lists keep the view's enumeration order: the kernels' sums
// follow it, and their results must stay bit-identical.
#ifndef ROBOGEXP_GRAPH_LOCAL_SUBGRAPH_H_
#define ROBOGEXP_GRAPH_LOCAL_SUBGRAPH_H_

#include <span>
#include <vector>

#include "src/graph/view.h"

namespace robogexp {

class LocalSubgraph {
 public:
  static constexpr int32_t kAbsent = -1;

  /// Member i is nodes[i]; records its degree in `view` and its in-subset
  /// neighbours in view.AppendNeighbors order. Building costs the members'
  /// adjacency: ids map through a per-thread scratch array of |V| entries
  /// that each build resets over its members.
  LocalSubgraph(const GraphView& view, std::vector<NodeId> nodes);

  size_t size() const { return nodes_.size(); }
  const std::vector<NodeId>& nodes() const { return nodes_; }
  NodeId node(size_t i) const { return nodes_[i]; }

  /// Local id of `u`, or kAbsent. Scans the members.
  int32_t LocalId(NodeId u) const;

  /// Degree of member i in the view, outside neighbours included.
  int degree(size_t i) const { return degree_[i]; }

  /// Local ids of member i's neighbours inside the subset.
  std::span<const int32_t> Neighbors(size_t i) const {
    return {neighbors_.data() + offsets_[i],
            neighbors_.data() + offsets_[i + 1]};
  }

  /// Orders every neighbour list by ascending node id.
  void SortNeighborsById();

 private:
  std::vector<NodeId> nodes_;
  std::vector<int> degree_;
  std::vector<size_t> offsets_;  // size() + 1 bounds into neighbors_
  std::vector<int32_t> neighbors_;
};

}  // namespace robogexp

#endif  // ROBOGEXP_GRAPH_LOCAL_SUBGRAPH_H_
