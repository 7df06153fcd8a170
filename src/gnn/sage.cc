#include "src/gnn/sage.h"

#include "src/graph/local_subgraph.h"
#include "src/util/thread_pool.h"

namespace robogexp {

SageModel::SageModel(std::vector<Layer> layers) : layers_(std::move(layers)) {
  RCW_CHECK(!layers_.empty());
  for (const auto& l : layers_) {
    RCW_CHECK(l.w_self.rows() == l.w_neigh.rows());
    RCW_CHECK(l.w_self.cols() == l.w_neigh.cols());
    RCW_CHECK(l.bias.rows() == 1 && l.bias.cols() == l.w_self.cols());
  }
}

Matrix SageModel::InferSubset(const GraphView& view, const Matrix& features,
                              const std::vector<NodeId>& nodes) const {
  const LocalSubgraph sub(view, nodes);
  const int64_t n = static_cast<int64_t>(nodes.size());
  Matrix h = features.GatherRows(nodes);

  for (size_t layer = 0; layer < layers_.size(); ++layer) {
    const Layer& L = layers_[layer];
    // Neighborhood means.
    Matrix mean(n, h.cols());
    ParallelFor(DefaultPool(), n, [&](int64_t i) {
      double* out = mean.Row(i);
      for (int32_t j : sub.Neighbors(static_cast<size_t>(i))) {
        const double* row = h.Row(j);
        for (int64_t c = 0; c < h.cols(); ++c) out[c] += row[c];
      }
      // Mean over the *true* neighborhood; isolated nodes aggregate zero.
      const int d = sub.degree(static_cast<size_t>(i));
      const double inv = d > 0 ? 1.0 / static_cast<double>(d) : 0.0;
      for (int64_t c = 0; c < h.cols(); ++c) out[c] *= inv;
    }, /*min_grain=*/16);
    Matrix z = Matrix::Multiply(h, L.w_self);
    const Matrix zn = Matrix::Multiply(mean, L.w_neigh);
    z.AddInPlace(zn);
    z.AddRowVectorInPlace(L.bias);
    if (layer + 1 < layers_.size()) z.ReluInPlace();
    h = std::move(z);
  }
  return h;
}

}  // namespace robogexp
