#include "src/baselines/saliency.h"

#include <algorithm>

#include "src/ppr/ppr.h"

namespace robogexp {

std::vector<Edge> SalientEdges(const GraphView& view, const Matrix& features,
                               const GnnModel& model, NodeId v, Label l,
                               int hop_radius, int max_ball_nodes, double alpha,
                               int pool) {
  PprOptions ppr;
  ppr.alpha = alpha;
  // Nearest edges first: like a gradient-based mask, saliency concentrates
  // on the test node's computation graph.
  const std::vector<NodeId> ball =
      CappedBall(view, v, hop_radius, max_ball_nodes);
  const Matrix logits = model.BaseLogits(view, features);
  std::vector<double> r(ball.size());
  for (size_t i = 0; i < ball.size(); ++i) r[i] = logits.at(ball[i], l);
  std::vector<Edge> out;
  for (const EvidenceEdge& s : RankEvidenceEdges(view, ball, r, ppr)) {
    if (static_cast<int>(out.size()) >= pool) break;
    out.push_back(s.edge);
  }
  return out;
}

double LabelMargin(const GnnModel& model, const GraphView& view,
                   const Matrix& features, NodeId v, Label l) {
  const std::vector<double> logits = model.InferNode(view, features, v);
  double best_other = -1e300;
  for (int c = 0; c < model.num_classes(); ++c) {
    if (c != l) {
      best_other = std::max(best_other, logits[static_cast<size_t>(c)]);
    }
  }
  return logits[static_cast<size_t>(l)] - best_other;
}

}  // namespace robogexp
