#include "src/gnn/model.h"

#include <algorithm>
#include <unordered_map>

namespace robogexp {

Matrix GnnModel::Infer(const GraphView& view, const Matrix& features) const {
  std::vector<NodeId> all(static_cast<size_t>(view.num_nodes()));
  for (NodeId u = 0; u < view.num_nodes(); ++u) all[static_cast<size_t>(u)] = u;
  return InferSubset(view, features, all);
}

std::vector<double> GnnModel::InferNode(const GraphView& view,
                                        const Matrix& features,
                                        NodeId v) const {
  const std::vector<NodeId> ball = KHopBall(view, v, receptive_hops());
  // Row 0 of the subset result is read as v's logits; that is only sound
  // because KHopBall guarantees the center is the first ball entry.
  RCW_CHECK_MSG(!ball.empty() && ball[0] == v,
                "InferNode: KHopBall must place the center first");
  const Matrix logits = InferSubset(view, features, ball);
  std::vector<double> out(static_cast<size_t>(num_classes()));
  for (int c = 0; c < num_classes(); ++c) {
    out[static_cast<size_t>(c)] = logits.at(0, c);
  }
  return out;
}

Matrix GnnModel::InferNodes(const GraphView& view, const Matrix& features,
                            const std::vector<NodeId>& nodes) const {
  Matrix out(static_cast<int64_t>(nodes.size()), num_classes());
  if (nodes.empty()) return out;
  const std::vector<NodeId> ball = KHopBall(view, nodes, receptive_hops());
  const Matrix logits = InferSubset(view, features, ball);
  // KHopBall lists the distinct seeds first; their rows lie in this prefix.
  std::unordered_map<NodeId, int64_t> row;
  for (size_t i = 0; i < std::min(ball.size(), nodes.size()); ++i) {
    row.emplace(ball[i], static_cast<int64_t>(i));
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int64_t r = row.at(nodes[i]);
    for (int c = 0; c < num_classes(); ++c) {
      out.at(static_cast<int64_t>(i), c) = logits.at(r, c);
    }
  }
  return out;
}

Label GnnModel::Predict(const GraphView& view, const Matrix& features,
                        NodeId v) const {
  return ArgmaxLabel(InferNode(view, features, v));
}

Matrix GnnModel::BaseLogits(const GraphView& view,
                            const Matrix& features) const {
  return Infer(view, features);
}

Label ArgmaxLabel(const std::vector<double>& logits) {
  RCW_CHECK(!logits.empty());
  Label best = 0;
  for (size_t c = 1; c < logits.size(); ++c) {
    if (logits[c] > logits[static_cast<size_t>(best)]) {
      best = static_cast<Label>(c);
    }
  }
  return best;
}

double Accuracy(const GnnModel& model, const GraphView& view,
                const Matrix& features, const std::vector<NodeId>& nodes,
                const std::vector<Label>& labels) {
  if (nodes.empty()) return 0.0;
  int correct = 0;
  const Matrix all = model.Infer(view, features);
  for (NodeId u : nodes) {
    Label best = 0;
    for (int c = 1; c < model.num_classes(); ++c) {
      if (all.at(u, c) > all.at(u, best)) best = c;
    }
    if (best == labels[static_cast<size_t>(u)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(nodes.size());
}

}  // namespace robogexp
