#include "src/gnn/gcn.h"

#include <cmath>

#include "src/graph/local_subgraph.h"
#include "src/util/thread_pool.h"

namespace robogexp {

GcnModel::GcnModel(std::vector<Matrix> weights, std::vector<Matrix> biases)
    : weights_(std::move(weights)), biases_(std::move(biases)) {
  RCW_CHECK(!weights_.empty());
  RCW_CHECK(weights_.size() == biases_.size());
  for (size_t i = 0; i + 1 < weights_.size(); ++i) {
    RCW_CHECK(weights_[i].cols() == weights_[i + 1].rows());
  }
}

Matrix GcnModel::InferSubset(const GraphView& view, const Matrix& features,
                             const std::vector<NodeId>& nodes) const {
  const LocalSubgraph sub(view, nodes);
  const int64_t n = static_cast<int64_t>(nodes.size());
  // True normalized degrees (Â = A + I), not the subset's.
  std::vector<double> inv_sqrt_deg(sub.size());
  for (size_t i = 0; i < sub.size(); ++i) {
    inv_sqrt_deg[i] = 1.0 / std::sqrt(static_cast<double>(sub.degree(i) + 1));
  }
  Matrix h = features.GatherRows(nodes);

  for (size_t layer = 0; layer < weights_.size(); ++layer) {
    const Matrix t = Matrix::Multiply(h, weights_[layer]);
    Matrix agg(n, t.cols());
    ParallelFor(DefaultPool(), n, [&](int64_t i) {
      const double di = inv_sqrt_deg[static_cast<size_t>(i)];
      double* out = agg.Row(i);
      // Self-loop term: Â includes I, normalization 1/d̂_i.
      const double* self_row = t.Row(i);
      for (int64_t c = 0; c < t.cols(); ++c) out[c] = di * di * self_row[c];
      for (int32_t j : sub.Neighbors(static_cast<size_t>(i))) {
        const double w = di * inv_sqrt_deg[static_cast<size_t>(j)];
        const double* row = t.Row(j);
        for (int64_t c = 0; c < t.cols(); ++c) out[c] += w * row[c];
      }
    }, /*min_grain=*/16);
    agg.AddRowVectorInPlace(biases_[layer]);
    if (layer + 1 < weights_.size()) agg.ReluInPlace();
    h = std::move(agg);
  }
  return h;
}

}  // namespace robogexp
