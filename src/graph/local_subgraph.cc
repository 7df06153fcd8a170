#include "src/graph/local_subgraph.h"

#include <algorithm>
#include <utility>

namespace robogexp {

LocalSubgraph::LocalSubgraph(const GraphView& view, std::vector<NodeId> nodes)
    : nodes_(std::move(nodes)),
      degree_(nodes_.size()),
      offsets_(nodes_.size() + 1, 0) {
  // Node id -> local id; kAbsent everywhere between builds.
  thread_local std::vector<int32_t> scratch;
  if (scratch.size() < static_cast<size_t>(view.num_nodes())) {
    scratch.resize(static_cast<size_t>(view.num_nodes()), kAbsent);
  }
  int32_t* const index = scratch.data();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    RCW_CHECK(nodes_[i] >= 0 && nodes_[i] < view.num_nodes());
    index[nodes_[i]] = static_cast<int32_t>(i);
  }
  std::vector<NodeId> nbrs;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    degree_[i] = view.Degree(nodes_[i]);
    nbrs.clear();
    view.AppendNeighbors(nodes_[i], &nbrs);
    for (NodeId w : nbrs) {
      const int32_t j = index[w];
      if (j != kAbsent) neighbors_.push_back(j);
    }
    offsets_[i + 1] = neighbors_.size();
  }
  for (NodeId u : nodes_) index[u] = kAbsent;
}

int32_t LocalSubgraph::LocalId(NodeId u) const {
  const auto it = std::find(nodes_.begin(), nodes_.end(), u);
  return it == nodes_.end() ? kAbsent
                            : static_cast<int32_t>(it - nodes_.begin());
}

void LocalSubgraph::SortNeighborsById() {
  for (size_t i = 0; i < size(); ++i) {
    std::sort(neighbors_.begin() + static_cast<ptrdiff_t>(offsets_[i]),
              neighbors_.begin() + static_cast<ptrdiff_t>(offsets_[i + 1]),
              [this](int32_t a, int32_t b) { return nodes_[a] < nodes_[b]; });
  }
}

}  // namespace robogexp
