#include "src/gnn/gat.h"

#include <algorithm>
#include <cmath>

#include "src/graph/local_subgraph.h"
#include "src/util/thread_pool.h"

namespace robogexp {

namespace {
double LeakyRelu(double x) { return x > 0.0 ? x : 0.2 * x; }
}  // namespace

GatModel::GatModel(std::vector<Layer> layers) : layers_(std::move(layers)) {
  RCW_CHECK(!layers_.empty());
  for (const auto& l : layers_) {
    RCW_CHECK(l.attn_src.rows() == 1 && l.attn_src.cols() == l.w.cols());
    RCW_CHECK(l.attn_dst.rows() == 1 && l.attn_dst.cols() == l.w.cols());
    RCW_CHECK(l.bias.rows() == 1 && l.bias.cols() == l.w.cols());
  }
}

Matrix GatModel::InferSubset(const GraphView& view, const Matrix& features,
                             const std::vector<NodeId>& nodes) const {
  LocalSubgraph sub(view, nodes);
  sub.SortNeighborsById();
  const int64_t n = static_cast<int64_t>(nodes.size());
  Matrix h = features.GatherRows(nodes);

  for (size_t layer = 0; layer < layers_.size(); ++layer) {
    const Layer& L = layers_[layer];
    const Matrix t = Matrix::Multiply(h, L.w);  // n x out
    // Per-node attention scalars: src_u = a_src · t_u, dst_u = a_dst · t_u.
    const Matrix attn_s = Matrix::MultiplyTransposed(t, L.attn_src);
    const Matrix attn_d = Matrix::MultiplyTransposed(t, L.attn_dst);
    Matrix z(n, t.cols());
    ParallelFor(DefaultPool(), n, [&](int64_t i) {
      const std::span<const int32_t> nbrs =
          sub.Neighbors(static_cast<size_t>(i));
      // Softmax over {i} ∪ local neighbors of i.
      std::vector<double> weights;
      weights.reserve(nbrs.size() + 1);
      weights.push_back(LeakyRelu(attn_s.at(i, 0) + attn_d.at(i, 0)));
      for (int32_t j : nbrs) {
        weights.push_back(LeakyRelu(attn_s.at(i, 0) + attn_d.at(j, 0)));
      }
      double mx = weights[0];
      for (double wgt : weights) mx = std::max(mx, wgt);
      double sum = 0.0;
      for (double& wgt : weights) {
        wgt = std::exp(wgt - mx);
        sum += wgt;
      }
      for (double& wgt : weights) wgt /= sum;
      double* out = z.Row(i);
      const double* self_row = t.Row(i);
      for (int64_t c = 0; c < t.cols(); ++c) out[c] = weights[0] * self_row[c];
      for (size_t p = 0; p < nbrs.size(); ++p) {
        const double* row = t.Row(nbrs[p]);
        for (int64_t c = 0; c < t.cols(); ++c) {
          out[c] += weights[p + 1] * row[c];
        }
      }
    }, /*min_grain=*/16);
    z.AddRowVectorInPlace(L.bias);
    if (layer + 1 < layers_.size()) z.ReluInPlace();
    h = std::move(z);
  }
  return h;
}

}  // namespace robogexp
