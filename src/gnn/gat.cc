#include "src/gnn/gat.h"

#include <algorithm>
#include <cmath>

#include "src/graph/local_subgraph.h"
#include "src/util/thread_pool.h"

namespace robogexp {

namespace {
double LeakyRelu(double x) { return x > 0.0 ? x : 0.2 * x; }

double Dot(const double* a, const double* b, int64_t n) {
  double s = 0.0;
  for (int64_t p = 0; p < n; ++p) s += a[p] * b[p];
  return s;
}

// T = H·W for one layer, with each row's attention scalars a_src·t_u and
// a_dst·t_u.
struct Projection {
  Projection(int64_t rows, int64_t cols)
      : t(rows, cols),
        src(static_cast<size_t>(rows)),
        dst(static_cast<size_t>(rows)) {}

  void Set(int64_t i, const double* h, const GatModel::Layer& layer) {
    double* row = t.Row(i);
    AddRowTimes(h, layer.w, row);
    src[static_cast<size_t>(i)] = Dot(row, layer.attn_src.Row(0), t.cols());
    dst[static_cast<size_t>(i)] = Dot(row, layer.attn_dst.Row(0), t.cols());
  }

  Matrix t;
  std::vector<double> src, dst;
};
}  // namespace

GatModel::GatModel(std::vector<Layer> layers) : layers_(std::move(layers)) {
  const Status ok = CheckParameters(layers_);
  RCW_CHECK_MSG(ok.ok(), ok.message().c_str());
}

Status GatModel::CheckParameters(const std::vector<Layer>& layers) {
  if (layers.empty()) return Status::InvalidArgument("GAT: no layers");
  for (size_t i = 0; i < layers.size(); ++i) {
    const Layer& l = layers[i];
    const int64_t in = i == 0 ? l.w.rows() : layers[i - 1].w.cols();
    RCW_RETURN_IF_ERROR(CheckLayerShape("GAT", i, l.w, in,
                                        {&l.attn_src, &l.attn_dst, &l.bias}));
  }
  return Status::OK();
}

Matrix GatModel::InferSubset(const GraphView& view, const Matrix& features,
                             const std::vector<NodeId>& nodes) const {
  return InferBall(view, features, nodes,
                   std::vector<size_t>(layers_.size() + 1, nodes.size()));
}

// One ParallelFor pass per layer. Pass l takes the softmax over {u} ∪ N(u)
// (neighbours by ascending id) of the attention logits, sums the weighted
// rows of T_l, adds the bias and, below the last layer, applies ReLU and
// projects the row for layer l + 1. A first pass projects the feature rows
// in place.
Matrix GatModel::InferBall(const GraphView& view, const Matrix& features,
                           const std::vector<NodeId>& ball,
                           const std::vector<size_t>& hop_ends) const {
  CheckBall(features, ball, hop_ends);
  LocalSubgraph sub(view, ball);
  sub.SortNeighborsById();
  Projection cur(static_cast<int64_t>(ball.size()), layers_[0].w.cols());
  ParallelFor(DefaultPool(), cur.t.rows(), [&](int64_t i) {
    cur.Set(i, features.Row(ball[static_cast<size_t>(i)]), layers_[0]);
  }, /*min_grain=*/16);

  const size_t last = layers_.size() - 1;
  for (size_t layer = 0; layer <= last; ++layer) {
    const int64_t width = cur.t.cols();
    const double* bias = layers_[layer].bias.Row(0);
    // Layer l's rows: those within last − l hops of the seeds. The last
    // layer's T holds the logits.
    Projection next(static_cast<int64_t>(hop_ends[last - layer]),
                    layer == last ? width : layers_[layer + 1].w.cols());
    ParallelFor(DefaultPool(), next.t.rows(), [&](int64_t i) {
      thread_local std::vector<double> weights, hidden;
      const size_t u = static_cast<size_t>(i);
      const std::span<const int32_t> nbrs = sub.Neighbors(u);
      // Softmax over {i} ∪ local neighbors of i.
      weights.clear();
      weights.push_back(LeakyRelu(cur.src[u] + cur.dst[u]));
      for (int32_t j : nbrs) {
        RCW_CHECK(j < cur.t.rows());  // the previous pass computed row j
        weights.push_back(
            LeakyRelu(cur.src[u] + cur.dst[static_cast<size_t>(j)]));
      }
      double mx = weights[0];
      for (double wgt : weights) mx = std::max(mx, wgt);
      double sum = 0.0;
      for (double& wgt : weights) {
        wgt = std::exp(wgt - mx);
        sum += wgt;
      }
      for (double& wgt : weights) wgt /= sum;
      hidden.resize(static_cast<size_t>(width));
      double* out = layer == last ? next.t.Row(i) : hidden.data();
      const double* self_row = cur.t.Row(i);
      for (int64_t c = 0; c < width; ++c) out[c] = weights[0] * self_row[c];
      for (size_t p = 0; p < nbrs.size(); ++p) {
        const double* row = cur.t.Row(nbrs[p]);
        for (int64_t c = 0; c < width; ++c) {
          out[c] += weights[p + 1] * row[c];
        }
      }
      for (int64_t c = 0; c < width; ++c) out[c] += bias[c];
      if (layer == last) return;
      for (int64_t c = 0; c < width; ++c) out[c] = out[c] > 0.0 ? out[c] : 0.0;
      next.Set(i, out, layers_[layer + 1]);
    }, /*min_grain=*/16);
    cur = std::move(next);
  }
  return std::move(cur.t);
}

}  // namespace robogexp
