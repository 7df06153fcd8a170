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
  std::vector<size_t> hop_ends;
  const std::vector<NodeId> ball =
      KHopBall(view, v, receptive_hops(), &hop_ends);
  // Row 0 of the result is read as v's logits; that is only sound because
  // KHopBall guarantees the center is the first ball entry.
  RCW_CHECK_MSG(!ball.empty() && ball[0] == v,
                "InferNode: KHopBall must place the center first");
  const Matrix logits = InferBall(view, features, ball, hop_ends);
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
  std::vector<size_t> hop_ends;
  const std::vector<NodeId> ball =
      KHopBall(view, nodes, receptive_hops(), 0, &hop_ends);
  const Matrix logits = InferBall(view, features, ball, hop_ends);
  // KHopBall lists the distinct seeds first; their rows lie in this prefix.
  std::unordered_map<NodeId, int64_t> row;
  for (size_t i = 0; i < hop_ends[0]; ++i) {
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

Matrix GnnModel::InferBall(const GraphView& view, const Matrix& features,
                           const std::vector<NodeId>& ball,
                           const std::vector<size_t>& hop_ends) const {
  (void)hop_ends;
  return InferSubset(view, features, ball);
}

void GnnModel::CheckBall(const Matrix& features,
                         const std::vector<NodeId>& ball,
                         const std::vector<size_t>& hop_ends) const {
  RCW_CHECK(features.cols() == num_features());
  RCW_CHECK(hop_ends.size() == static_cast<size_t>(num_layers()) + 1);
  RCW_CHECK(std::is_sorted(hop_ends.begin(), hop_ends.end()));
  RCW_CHECK(hop_ends.back() == ball.size());
}

Status CheckLayerShape(const std::string& model, size_t layer, const Matrix& w,
                       int64_t in,
                       std::initializer_list<const Matrix*> row_vectors) {
  const auto shape = [](const Matrix& m) {
    return std::to_string(m.rows()) + "x" + std::to_string(m.cols());
  };
  const auto error = [&](const std::string& what) {
    return Status::InvalidArgument(model + " layer " + std::to_string(layer) +
                                   ": " + what);
  };
  if (w.rows() <= 0 || w.cols() <= 0) {
    return error("weights are " + shape(w) + ", expected positive widths");
  }
  if (w.rows() != in) {
    return error("weights are " + shape(w) + " but the layer before outputs " +
                 std::to_string(in) + " values");
  }
  for (const Matrix* v : row_vectors) {
    if (v->rows() != 1 || v->cols() != w.cols()) {
      return error("a bias or attention vector is " + shape(*v) +
                   ", expected 1x" + std::to_string(w.cols()));
    }
  }
  return Status::OK();
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
