#include "src/gnn/gin.h"

#include "src/graph/local_subgraph.h"
#include "src/util/thread_pool.h"

namespace robogexp {

GinModel::GinModel(std::vector<Matrix> weights, std::vector<Matrix> biases,
                   double epsilon)
    : weights_(std::move(weights)), biases_(std::move(biases)),
      epsilon_(epsilon) {
  const Status ok = CheckParameters(weights_, biases_);
  RCW_CHECK_MSG(ok.ok(), ok.message().c_str());
}

Status GinModel::CheckParameters(const std::vector<Matrix>& weights,
                                 const std::vector<Matrix>& biases) {
  if (weights.empty() || weights.size() != biases.size()) {
    return Status::InvalidArgument("GIN: needs one bias per weight matrix");
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    const int64_t in = i == 0 ? weights[0].rows() : weights[i - 1].cols();
    RCW_RETURN_IF_ERROR(
        CheckLayerShape("GIN", i, weights[i], in, {&biases[i]}));
  }
  return Status::OK();
}

Matrix GinModel::InferSubset(const GraphView& view, const Matrix& features,
                             const std::vector<NodeId>& nodes) const {
  return InferBall(view, features, nodes,
                   std::vector<size_t>(weights_.size() + 1, nodes.size()));
}

// One ParallelFor pass per layer. Pass l sums (1 + ε)·h_u and the
// neighbours' rows of H_l in view order, multiplies by W_l, adds the bias and,
// below the last layer, applies ReLU. Layer 0 reads the feature rows in
// place.
Matrix GinModel::InferBall(const GraphView& view, const Matrix& features,
                           const std::vector<NodeId>& ball,
                           const std::vector<size_t>& hop_ends) const {
  CheckBall(features, ball, hop_ends);
  const LocalSubgraph sub(view, ball);
  const size_t last = weights_.size() - 1;
  Matrix h;
  for (size_t layer = 0; layer <= last; ++layer) {
    const Matrix& w = weights_[layer];
    const int64_t in_rows =
        layer == 0 ? static_cast<int64_t>(ball.size()) : h.rows();
    const auto in_row = [&](int64_t r) {
      return layer == 0 ? features.Row(ball[static_cast<size_t>(r)])
                        : h.Row(r);
    };
    const double* bias = biases_[layer].Row(0);
    // Layer l's rows: those within last − l hops of the seeds.
    Matrix z(static_cast<int64_t>(hop_ends[last - layer]), w.cols());
    ParallelFor(DefaultPool(), z.rows(), [&](int64_t i) {
      thread_local std::vector<double> scratch;
      scratch.resize(static_cast<size_t>(w.rows()));
      double* agg = scratch.data();
      const double* self_row = in_row(i);
      for (int64_t c = 0; c < w.rows(); ++c) {
        agg[c] = (1.0 + epsilon_) * self_row[c];
      }
      for (int32_t j : sub.Neighbors(static_cast<size_t>(i))) {
        RCW_CHECK(j < in_rows);  // the previous pass computed row j
        const double* row = in_row(j);
        for (int64_t c = 0; c < w.rows(); ++c) agg[c] += row[c];
      }
      double* out = z.Row(i);
      AddRowTimes(agg, w, out);
      for (int64_t c = 0; c < w.cols(); ++c) out[c] += bias[c];
      if (layer == last) return;
      for (int64_t c = 0; c < w.cols(); ++c) {
        out[c] = out[c] > 0.0 ? out[c] : 0.0;
      }
    }, /*min_grain=*/16);
    h = std::move(z);
  }
  return h;
}

}  // namespace robogexp
