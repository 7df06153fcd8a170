#include "src/graph/view.h"

#include <algorithm>
#include <cstdint>

namespace robogexp {

int64_t GraphView::CountEdges() const {
  int64_t twice = 0;
  for (NodeId u = 0; u < num_nodes(); ++u) twice += Degree(u);
  return twice / 2;
}

OverlayView::OverlayView(const GraphView* base, const std::vector<Edge>& flips)
    : base_(base) {
  RCW_CHECK(base != nullptr);
  for (const Edge& e : flips) {
    RCW_CHECK(e.u != e.v);
    const uint64_t key = e.Key();
    // A pair listed twice flips once.
    if (base_->HasEdge(e.u, e.v)) {
      if (removed_keys_.count(key) > 0) continue;
      removed_keys_.insert(key);
      removed_[e.u].push_back(e.v);
      removed_[e.v].push_back(e.u);
      ++num_removals_;
    } else {
      if (added_keys_.count(key) > 0) continue;
      added_keys_.insert(key);
      added_[e.u].push_back(e.v);
      added_[e.v].push_back(e.u);
      ++num_insertions_;
    }
  }
  // Canonicalize inserted-neighbor order: AppendNeighbors must enumerate the
  // same sequence for the same edge-set content regardless of the order the
  // flips were listed in, so inference over equal overlays is bit-identical
  // no matter which caller built them (PprPush deliberately does not sort
  // its neighbor lists, so enumeration order reaches the numerics).
  for (auto& [u, nbrs] : added_) std::sort(nbrs.begin(), nbrs.end());
}

int OverlayView::Degree(NodeId u) const {
  int d = base_->Degree(u);
  auto ita = added_.find(u);
  if (ita != added_.end()) d += static_cast<int>(ita->second.size());
  auto itr = removed_.find(u);
  if (itr != removed_.end()) d -= static_cast<int>(itr->second.size());
  return d;
}

bool OverlayView::HasEdge(NodeId u, NodeId v) const {
  const uint64_t key = PairKey(u, v);
  if (removed_keys_.count(key) > 0) return false;
  if (added_keys_.count(key) > 0) return true;
  return base_->HasEdge(u, v);
}

void OverlayView::AppendNeighbors(NodeId u, std::vector<NodeId>* out) const {
  auto itr = removed_.find(u);
  if (itr == removed_.end()) {
    base_->AppendNeighbors(u, out);
  } else {
    std::vector<NodeId> base_nbrs;
    base_->AppendNeighbors(u, &base_nbrs);
    for (NodeId w : base_nbrs) {
      if (removed_keys_.count(PairKey(u, w)) == 0) out->push_back(w);
    }
  }
  auto ita = added_.find(u);
  if (ita != added_.end()) {
    out->insert(out->end(), ita->second.begin(), ita->second.end());
  }
}

int64_t OverlayView::CountEdges() const {
  return base_->CountEdges() + num_insertions_ - num_removals_;
}

EdgeSubsetView::EdgeSubsetView(NodeId num_nodes, const std::vector<Edge>& edges)
    : num_nodes_(num_nodes) {
  for (const Edge& e : edges) {
    RCW_CHECK(e.u >= 0 && e.v < num_nodes && e.u != e.v);
    if (!edge_keys_.insert(e.Key()).second) continue;
    adj_[e.u].push_back(e.v);
    adj_[e.v].push_back(e.u);
  }
}

int EdgeSubsetView::Degree(NodeId u) const {
  auto it = adj_.find(u);
  return it == adj_.end() ? 0 : static_cast<int>(it->second.size());
}

void EdgeSubsetView::AppendNeighbors(NodeId u, std::vector<NodeId>* out) const {
  auto it = adj_.find(u);
  if (it != adj_.end()) {
    out->insert(out->end(), it->second.begin(), it->second.end());
  }
}

std::vector<NodeId> KHopBall(const GraphView& view, NodeId center, int hops,
                             std::vector<size_t>* hop_ends) {
  return KHopBall(view, std::vector<NodeId>{center}, hops, 0, hop_ends);
}

std::vector<NodeId> KHopBall(const GraphView& view,
                             const std::vector<NodeId>& seeds, int hops,
                             int max_nodes, std::vector<size_t>* hop_ends) {
  // Membership flags, all clear between calls: each call clears the ones it
  // set, so a call costs its ball's adjacency, not O(|V|).
  thread_local std::vector<uint8_t> seen;
  if (seen.size() < static_cast<size_t>(view.num_nodes())) {
    seen.resize(static_cast<size_t>(view.num_nodes()), 0);
  }
  std::vector<NodeId> order;
  for (NodeId s : seeds) {
    RCW_CHECK(s >= 0 && s < view.num_nodes());
    if (seen[static_cast<size_t>(s)] == 0) {
      seen[static_cast<size_t>(s)] = 1;
      order.push_back(s);
    }
  }
  // ends[d] counts the entries within d hops.
  std::vector<size_t> ends;
  if (hop_ends != nullptr) {
    RCW_CHECK(hops >= 0);
    ends.assign(static_cast<size_t>(hops) + 1, 0);
    ends[0] = order.size();
  }
  // Level by level over `order` itself: entries [begin, end) lie d hops
  // out, and expanding them appends the entries d + 1 hops out.
  std::vector<NodeId> nbrs;
  bool capped = false;
  for (int d = 0, begin = 0; d != hops && !capped; ++d) {
    const int end = static_cast<int>(order.size());
    if (begin == end) break;
    for (int i = begin; i < end && !capped; ++i) {
      nbrs.clear();
      view.AppendNeighbors(order[static_cast<size_t>(i)], &nbrs);
      std::sort(nbrs.begin(), nbrs.end());  // deterministic order
      for (NodeId w : nbrs) {
        if (max_nodes > 0 && static_cast<int>(order.size()) >= max_nodes) {
          capped = true;
          break;
        }
        if (seen[static_cast<size_t>(w)] == 0) {
          seen[static_cast<size_t>(w)] = 1;
          order.push_back(w);
        }
      }
    }
    begin = end;
    if (!ends.empty()) ends[static_cast<size_t>(d + 1)] = order.size();
  }
  for (NodeId u : order) seen[static_cast<size_t>(u)] = 0;
  if (hop_ends != nullptr) {
    for (size_t h = 1; h < ends.size(); ++h) {
      ends[h] = std::max(ends[h], ends[h - 1]);
    }
    *hop_ends = std::move(ends);
  }
  return order;
}

std::vector<Edge> InducedEdges(const GraphView& view,
                               const std::vector<NodeId>& nodes) {
  std::unordered_set<NodeId> in_set(nodes.begin(), nodes.end());
  std::vector<Edge> edges;
  std::vector<NodeId> nbrs;
  for (NodeId u : nodes) {
    nbrs.clear();
    view.AppendNeighbors(u, &nbrs);
    for (NodeId w : nbrs) {
      if (w > u && in_set.count(w) > 0) edges.emplace_back(u, w);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

bool IsConnected(const GraphView& view) {
  if (view.num_nodes() == 0) return true;
  const auto ball = KHopBall(view, NodeId{0}, view.num_nodes());
  return static_cast<NodeId>(ball.size()) == view.num_nodes();
}

}  // namespace robogexp
