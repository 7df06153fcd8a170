#include "src/gnn/gcn.h"

#include <cmath>

#include "src/graph/local_subgraph.h"
#include "src/util/thread_pool.h"

namespace robogexp {

GcnModel::GcnModel(std::vector<Matrix> weights, std::vector<Matrix> biases)
    : weights_(std::move(weights)), biases_(std::move(biases)) {
  const Status ok = CheckParameters(weights_, biases_);
  RCW_CHECK_MSG(ok.ok(), ok.message().c_str());
}

Status GcnModel::CheckParameters(const std::vector<Matrix>& weights,
                                 const std::vector<Matrix>& biases) {
  if (weights.empty() || weights.size() != biases.size()) {
    return Status::InvalidArgument("GCN: needs one bias per weight matrix");
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    const int64_t in = i == 0 ? weights[0].rows() : weights[i - 1].cols();
    RCW_RETURN_IF_ERROR(
        CheckLayerShape("GCN", i, weights[i], in, {&biases[i]}));
  }
  return Status::OK();
}

Matrix GcnModel::InferSubset(const GraphView& view, const Matrix& features,
                             const std::vector<NodeId>& nodes) const {
  return InferBall(view, features, nodes,
                   std::vector<size_t>(weights_.size() + 1, nodes.size()));
}

// One ParallelFor pass per layer. Pass l aggregates T_l = H_l·W_l over Â's
// normalized row (self term, then neighbours in view order), adds the bias
// and, below the last layer, applies ReLU and multiplies by W_{l+1} into
// T_{l+1}. A first pass projects the feature rows in place: T_0 = X·W_0.
Matrix GcnModel::InferBall(const GraphView& view, const Matrix& features,
                           const std::vector<NodeId>& ball,
                           const std::vector<size_t>& hop_ends) const {
  CheckBall(features, ball, hop_ends);
  const LocalSubgraph sub(view, ball);
  // True normalized degrees (Â = A + I), not the subset's.
  std::vector<double> inv_sqrt_deg(sub.size());
  for (size_t i = 0; i < sub.size(); ++i) {
    inv_sqrt_deg[i] = 1.0 / std::sqrt(static_cast<double>(sub.degree(i) + 1));
  }
  Matrix t(static_cast<int64_t>(ball.size()), weights_[0].cols());
  ParallelFor(DefaultPool(), t.rows(), [&](int64_t i) {
    AddRowTimes(features.Row(ball[static_cast<size_t>(i)]), weights_[0],
                t.Row(i));
  }, /*min_grain=*/16);

  const size_t last = weights_.size() - 1;
  for (size_t layer = 0; layer <= last; ++layer) {
    const int64_t width = t.cols();
    const double* bias = biases_[layer].Row(0);
    // Layer l's rows: those within last − l hops of the seeds.
    Matrix next(static_cast<int64_t>(hop_ends[last - layer]),
                layer == last ? width : weights_[layer + 1].cols());
    ParallelFor(DefaultPool(), next.rows(), [&](int64_t i) {
      thread_local std::vector<double> hidden;
      hidden.resize(static_cast<size_t>(width));
      double* out = layer == last ? next.Row(i) : hidden.data();
      const double di = inv_sqrt_deg[static_cast<size_t>(i)];
      // Self-loop term: Â includes I, normalization 1/d̂_i.
      const double* self_row = t.Row(i);
      for (int64_t c = 0; c < width; ++c) out[c] = di * di * self_row[c];
      for (int32_t j : sub.Neighbors(static_cast<size_t>(i))) {
        RCW_CHECK(j < t.rows());  // the previous pass computed row j
        const double w = di * inv_sqrt_deg[static_cast<size_t>(j)];
        const double* row = t.Row(j);
        for (int64_t c = 0; c < width; ++c) out[c] += w * row[c];
      }
      for (int64_t c = 0; c < width; ++c) out[c] += bias[c];
      if (layer == last) return;
      for (int64_t c = 0; c < width; ++c) out[c] = out[c] > 0.0 ? out[c] : 0.0;
      AddRowTimes(out, weights_[layer + 1], next.Row(i));
    }, /*min_grain=*/16);
    t = std::move(next);
  }
  return t;
}

}  // namespace robogexp
