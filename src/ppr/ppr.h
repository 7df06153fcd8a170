// Personalized PageRank primitives over GraphViews.
//
// The random-walk transition used throughout is the paper's P = D̂^{-1} Â
// with Â = A + I (self-loops), so every node has degree >= 1 and the
// propagation matrix Π = (1-α)(I - αP)^{-1} is well defined on any view.
#ifndef ROBOGEXP_PPR_PPR_H_
#define ROBOGEXP_PPR_PPR_H_

#include <unordered_map>
#include <vector>

#include "src/graph/local_subgraph.h"
#include "src/graph/view.h"

namespace robogexp {

struct PprOptions {
  /// Teleport (restart) probability weight: Π = (1-α)(I - αP)^{-1}.
  /// α is the walk-continuation probability.
  double alpha = 0.85;
  /// Residual threshold for local push.
  double epsilon = 1e-7;
  /// Iteration cap for power-iteration solvers.
  int max_iterations = 200;
  /// L∞ convergence tolerance for power iteration.
  double tolerance = 1e-10;
};

/// Sparse PPR vector: node -> probability mass.
using SparseVector = std::unordered_map<NodeId, double>;

/// Approximate PPR row of `source` via deterministic forward push
/// (Andersen-style). Returns mass within `opts.epsilon` L1 residual.
SparseVector PprPush(const GraphView& view, NodeId source,
                     const PprOptions& opts);

/// Exact (to tolerance) PPR row of `source` via power iteration restricted to
/// the nodes of `subset` (true degrees from `view` are used; mass leaking to
/// nodes outside the subset is dropped). Pass all nodes for the global row.
std::vector<double> PprPowerIteration(const GraphView& view, NodeId source,
                                      const std::vector<NodeId>& subset,
                                      const PprOptions& opts);

/// Solves x = r + α P x, i.e. x = (I - αP)^{-1} r, by power iteration over
/// the nodes of `sub` (true degrees from its view; mass leaving the subset is
/// dropped). `r` and the result are indexed by local id.
std::vector<double> SolveIMinusAlphaP(const LocalSubgraph& sub,
                                      const std::vector<double>& r,
                                      const PprOptions& opts);

/// An edge (a, b) of a ball with the class evidence it routes toward the
/// center, max(x_b - μ_a, x_a - μ_b) on x = (I - αP)^{-1} r with
/// neighbourhood means μ_u = (x_u - r_u)/α, and the hops from the center to
/// its closer endpoint over in-ball edges.
struct EvidenceEdge {
  Edge edge;
  double score;
  int distance;
};

/// Every edge inside `ball`, a BFS-ordered ball of `view` around its center
/// ball[0] (CappedBall's), with `r` (class-l evidence aligned with `ball`)
/// as the solved vector: nearest first, then strongest, then by edge.
std::vector<EvidenceEdge> RankEvidenceEdges(const GraphView& view,
                                            const std::vector<NodeId>& ball,
                                            const std::vector<double>& r,
                                            const PprOptions& opts);

/// BFS ball around `center` capped at `max_nodes` (used to localize PPR
/// solves on very large graphs; cap <= 0 means unlimited).
std::vector<NodeId> CappedBall(const GraphView& view, NodeId center, int hops,
                               int max_nodes);

}  // namespace robogexp

#endif  // ROBOGEXP_PPR_PPR_H_
