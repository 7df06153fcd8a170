#include "src/gnn/gin.h"

#include "src/graph/local_subgraph.h"
#include "src/util/thread_pool.h"

namespace robogexp {

GinModel::GinModel(std::vector<Matrix> weights, std::vector<Matrix> biases,
                   double epsilon)
    : weights_(std::move(weights)), biases_(std::move(biases)),
      epsilon_(epsilon) {
  RCW_CHECK(!weights_.empty());
  RCW_CHECK(weights_.size() == biases_.size());
}

Matrix GinModel::InferSubset(const GraphView& view, const Matrix& features,
                             const std::vector<NodeId>& nodes) const {
  const LocalSubgraph sub(view, nodes);
  const int64_t n = static_cast<int64_t>(nodes.size());
  Matrix h = features.GatherRows(nodes);

  for (size_t layer = 0; layer < weights_.size(); ++layer) {
    Matrix agg(n, h.cols());
    ParallelFor(DefaultPool(), n, [&](int64_t i) {
      double* out = agg.Row(i);
      const double* self_row = h.Row(i);
      for (int64_t c = 0; c < h.cols(); ++c) {
        out[c] = (1.0 + epsilon_) * self_row[c];
      }
      for (int32_t j : sub.Neighbors(static_cast<size_t>(i))) {
        const double* row = h.Row(j);
        for (int64_t c = 0; c < h.cols(); ++c) out[c] += row[c];
      }
    }, /*min_grain=*/16);
    Matrix z = Matrix::Multiply(agg, weights_[layer]);
    z.AddRowVectorInPlace(biases_[layer]);
    if (layer + 1 < weights_.size()) z.ReluInPlace();
    h = std::move(z);
  }
  return h;
}

}  // namespace robogexp
