#include "src/ppr/pri.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace robogexp {

namespace {

// Scored candidate flip.
struct Candidate {
  Edge edge;
  double score;
};

}  // namespace

double PprContrastGain(const GraphView& view, const std::vector<NodeId>& ball,
                       const std::vector<double>& r, const PprOptions& opts) {
  const std::vector<double> x =
      SolveIMinusAlphaP(LocalSubgraph(view, ball), r, opts);
  return (1.0 - opts.alpha) * x[0];
}

PriResult Pri(const GraphView& base,
              const std::unordered_set<uint64_t>& protected_keys,
              const std::vector<NodeId>& ball, const std::vector<double>& r,
              const PriOptions& opts) {
  RCW_CHECK(!ball.empty() && r.size() == ball.size());
  PriResult result;
  std::vector<Edge> current;  // E_i
  std::unordered_set<uint64_t> current_keys;
  // `sub` is the ball as read on OverlayView(&base, current). Its nodes are
  // fixed on the undisturbed view for determinism; removal-only disturbances
  // can only shrink the reachable set, and the paper's own search is
  // localized around the explanation.
  LocalSubgraph sub(base, ball);
  // `x` solves `sub`; the undisturbed solve serves round 0.
  std::vector<double> x = SolveIMinusAlphaP(sub, r, opts.ppr);
  result.base_gain = (1.0 - opts.ppr.alpha) * x[0];
  result.disturbed_gain = result.base_gain;

  int round = 0;
  for (; round < opts.max_rounds; ++round) {
    result.rounds = round + 1;
    if (round > 0) x = SolveIMinusAlphaP(sub, r, opts.ppr);

    // Score all candidate flips incident to ball nodes.
    std::vector<Candidate> improving;
    for (size_t i = 0; i < sub.size(); ++i) {
      const NodeId u = sub.node(i);
      const double mu = (x[i] - r[i]) / opts.ppr.alpha;  // neighborhood mean
      const std::span<const int32_t> nbrs = sub.Neighbors(i);
      // Removal candidates: current edges of the overlay inside the ball.
      std::vector<Candidate> per_node;
      for (int32_t j : nbrs) {
        const NodeId w = sub.node(static_cast<size_t>(j));
        if (w <= u) continue;  // score each undirected pair once (from u side)
        const uint64_t key = PairKey(u, w);
        if (protected_keys.count(key) > 0) continue;
        const double s = -(x[j] - mu);  // removal: -(x_w - μ_u)
        if (s > 1e-12) per_node.push_back({Edge(u, w), s});
      }
      if (opts.allow_insertions) {
        // Insertion candidates: top-x(w) ball nodes not adjacent to u.
        std::vector<size_t> order(sub.size());
        for (size_t j = 0; j < sub.size(); ++j) order[j] = j;
        std::partial_sort(
            order.begin(),
            order.begin() +
                std::min<size_t>(
                    order.size(),
                    static_cast<size_t>(opts.insertion_fanout) + 2),
            order.end(), [&](size_t a, size_t b2) { return x[a] > x[b2]; });
        int taken = 0;
        for (size_t j : order) {
          if (taken >= opts.insertion_fanout) break;
          const NodeId w = sub.node(j);
          const int32_t lj = static_cast<int32_t>(j);
          if (w == u || std::find(nbrs.begin(), nbrs.end(), lj) != nbrs.end()) {
            continue;
          }
          const uint64_t key = PairKey(u, w);
          if (protected_keys.count(key) > 0) continue;
          const double s = x[j] - mu;  // insertion: +(x_w - μ_u)
          if (s > 1e-12) per_node.push_back({Edge(u, w), s});
          ++taken;
        }
      }
      // Local budget: at most b flips proposed per node per round.
      std::sort(per_node.begin(), per_node.end(),
                [](const Candidate& a, const Candidate& b2) {
                  return a.score != b2.score ? a.score > b2.score
                                             : a.edge < b2.edge;
                });
      if (static_cast<int>(per_node.size()) > opts.local_budget) {
        per_node.resize(static_cast<size_t>(opts.local_budget));
      }
      improving.insert(improving.end(), per_node.begin(), per_node.end());
    }

    if (improving.empty()) break;

    // E_{i+1} = E_i Δ E_b (symmetric difference), then enforce the global
    // budget k and per-node budget b deterministically by score.
    std::unordered_map<uint64_t, double> score_by_key;
    for (const auto& c : improving) {
      auto [it, inserted] = score_by_key.emplace(c.edge.Key(), c.score);
      if (!inserted) it->second = std::max(it->second, c.score);
    }
    std::vector<Candidate> merged;
    for (const Edge& e : current) {
      if (score_by_key.count(e.Key()) == 0) {
        merged.push_back({e, 1e9});  // kept flips retain priority
      }
    }
    for (const auto& c : improving) {
      if (current_keys.count(c.edge.Key()) == 0) merged.push_back(c);
      // flips present in both E_i and E_b cancel (symmetric difference)
    }
    std::sort(merged.begin(), merged.end(),
              [](const Candidate& a, const Candidate& b2) {
                return a.score != b2.score ? a.score > b2.score
                                           : a.edge < b2.edge;
              });
    // `next` keeps score order (highest adversarial impact first) so that
    // callers can secure the most damaging pairs first; the fixpoint test
    // compares sorted copies.
    std::vector<Edge> next;
    std::unordered_set<uint64_t> next_keys;
    std::unordered_map<NodeId, int> node_budget;
    for (const auto& c : merged) {
      if (static_cast<int>(next.size()) >= opts.k) break;
      if (node_budget[c.edge.u] >= opts.local_budget ||
          node_budget[c.edge.v] >= opts.local_budget) {
        continue;
      }
      if (!next_keys.insert(c.edge.Key()).second) continue;
      next.push_back(c.edge);
      ++node_budget[c.edge.u];
      ++node_budget[c.edge.v];
    }

    std::vector<Edge> next_sorted = next, current_sorted = current;
    std::sort(next_sorted.begin(), next_sorted.end());
    std::sort(current_sorted.begin(), current_sorted.end());
    if (next_sorted == current_sorted) break;  // fixpoint
    current = std::move(next);
    current_keys = std::move(next_keys);
    sub = LocalSubgraph(OverlayView(&base, current), sub.nodes());
  }

  if (!current.empty()) {
    // Only a loop ended by the round cap leaves `x` a disturbance behind.
    if (round == opts.max_rounds) x = SolveIMinusAlphaP(sub, r, opts.ppr);
    result.disturbed_gain = (1.0 - opts.ppr.alpha) * x[0];
    // Keep the disturbance only if it actually improves the adversarial
    // objective (guards against oscillation in the greedy update).
    if (result.disturbed_gain > result.base_gain) {
      result.disturbance = std::move(current);
    } else {
      result.disturbed_gain = result.base_gain;
    }
  }
  return result;
}

}  // namespace robogexp
