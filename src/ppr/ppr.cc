#include "src/ppr/ppr.h"

#include <algorithm>
#include <cmath>
#include <deque>

namespace robogexp {

SparseVector PprPush(const GraphView& view, NodeId source,
                     const PprOptions& opts) {
  SparseVector p;
  SparseVector residual;
  residual[source] = 1.0;
  std::deque<NodeId> queue{source};
  SparseVector queued;
  queued[source] = 1.0;

  std::vector<NodeId> nbrs;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    queued.erase(u);
    auto it = residual.find(u);
    if (it == residual.end() || it->second < opts.epsilon) continue;
    const double ru = it->second;
    residual.erase(it);
    p[u] += (1.0 - opts.alpha) * ru;

    // Push α·ru along P's row of u (self-loop included: d̂ = deg + 1).
    // Deposits are order-independent (each neighbor receives the same share
    // regardless of iteration order), so the neighbor list is deliberately
    // NOT sorted here — an O(d log d) sort in the hottest PPR loop would be
    // pure waste. CappedBall keeps its sort: ball *ordering* is part of its
    // deterministic-output contract.
    nbrs.clear();
    view.AppendNeighbors(u, &nbrs);
    const double share = opts.alpha * ru / static_cast<double>(nbrs.size() + 1);
    auto deposit = [&](NodeId w) {
      double& rw = residual[w];
      rw += share;
      if (rw >= opts.epsilon && queued.find(w) == queued.end()) {
        queued[w] = 1.0;
        queue.push_back(w);
      }
    };
    deposit(u);  // self-loop
    for (NodeId w : nbrs) deposit(w);
  }
  // Account for remaining sub-threshold residual proportionally: p already
  // holds (1-α)-scaled mass; the residual r satisfies π = p + Π r and
  // ||r||_1 < ε·|support|; we fold the local term only.
  for (const auto& [u, ru] : residual) p[u] += (1.0 - opts.alpha) * ru;
  return p;
}

std::vector<double> PprPowerIteration(const GraphView& view, NodeId source,
                                      const std::vector<NodeId>& subset,
                                      const PprOptions& opts) {
  // The PPR row of `source` is π^T = (1-α)(I - αP^T)^{-1} e_source, where
  // (P^T x)(u) = Σ_{w ∈ N̂(u)} x(w)/d̂(w)  (P is row-stochastic, so the row
  // of Π needs the transpose iteration; the column solver below handles
  // (I - αP)^{-1}).
  const LocalSubgraph sub(view, subset);
  const int32_t src = sub.LocalId(source);
  RCW_CHECK_MSG(src != LocalSubgraph::kAbsent,
                "PprPowerIteration: source not in subset");
  const size_t n = sub.size();
  std::vector<double> inv_deg(n);
  for (size_t i = 0; i < n; ++i) {
    inv_deg[i] = 1.0 / static_cast<double>(sub.degree(i) + 1);
  }

  std::vector<double> x(n, 0.0), next(n);
  x[static_cast<size_t>(src)] = 1.0;
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double s = x[i] * inv_deg[i];  // self-loop
      for (int32_t j : sub.Neighbors(i)) s += x[j] * inv_deg[j];
      next[i] = (i == static_cast<size_t>(src) ? 1.0 : 0.0) + opts.alpha * s;
      delta = std::max(delta, std::fabs(next[i] - x[i]));
    }
    x.swap(next);
    if (delta < opts.tolerance) break;
  }
  for (double& v : x) v *= (1.0 - opts.alpha);
  return x;
}

std::vector<double> SolveIMinusAlphaP(const LocalSubgraph& sub,
                                      const std::vector<double>& r,
                                      const PprOptions& opts) {
  RCW_CHECK(sub.size() == r.size());
  const size_t n = sub.size();
  // True inverse degrees d̂ = deg(view) + 1 (self-loop).
  std::vector<double> inv_deg(n);
  for (size_t i = 0; i < n; ++i) {
    inv_deg[i] = 1.0 / static_cast<double>(sub.degree(i) + 1);
  }

  // x = r + α P x  with  (P x)(u) = inv_deg(u) * (x(u) + Σ_{w∈N(u)} x(w)).
  // Fixed-point iteration converges geometrically with rate α.
  std::vector<double> x = r;
  std::vector<double> next(n);
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double s = x[i];  // self-loop
      for (int32_t j : sub.Neighbors(i)) s += x[j];
      next[i] = r[i] + opts.alpha * inv_deg[i] * s;
      delta = std::max(delta, std::fabs(next[i] - x[i]));
    }
    x.swap(next);
    if (delta < opts.tolerance) break;
  }
  return x;
}

std::vector<EvidenceEdge> RankEvidenceEdges(
    const GraphView& view, const std::vector<NodeId>& ball,
    const std::vector<double>& r, const PprOptions& opts) {
  const LocalSubgraph sub(view, ball);
  const std::vector<double> x = SolveIMinusAlphaP(sub, r, opts);
  auto mu = [&](size_t i) { return (x[i] - r[i]) / opts.alpha; };

  // Hops from the center ball[0] over in-ball edges. The ball is in BFS
  // order, so one pass in that order reaches each member from its BFS parent
  // first.
  std::vector<int> dist(sub.size(), 1 << 20);
  dist[0] = 0;
  for (size_t a = 0; a < sub.size(); ++a) {
    for (int32_t b : sub.Neighbors(a)) {
      dist[b] = std::min(dist[b], dist[a] + 1);
    }
  }

  std::vector<EvidenceEdge> out;
  for (size_t a = 0; a < sub.size(); ++a) {
    for (int32_t j : sub.Neighbors(a)) {
      const size_t b = static_cast<size_t>(j);
      if (sub.node(b) < sub.node(a)) continue;  // each pair once, u < v
      out.push_back({Edge(sub.node(a), sub.node(b)),
                     std::max(x[b] - mu(a), x[a] - mu(b)),
                     std::min(dist[a], dist[b])});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const EvidenceEdge& a, const EvidenceEdge& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              if (a.score != b.score) return a.score > b.score;
              return a.edge < b.edge;
            });
  return out;
}

std::vector<NodeId> CappedBall(const GraphView& view, NodeId center, int hops,
                               int max_nodes) {
  return KHopBall(view, std::vector<NodeId>{center}, hops, max_nodes);
}

}  // namespace robogexp
