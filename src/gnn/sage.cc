#include "src/gnn/sage.h"

#include "src/graph/local_subgraph.h"
#include "src/util/thread_pool.h"

namespace robogexp {

SageModel::SageModel(std::vector<Layer> layers) : layers_(std::move(layers)) {
  const Status ok = CheckParameters(layers_);
  RCW_CHECK_MSG(ok.ok(), ok.message().c_str());
}

Status SageModel::CheckParameters(const std::vector<Layer>& layers) {
  if (layers.empty()) return Status::InvalidArgument("GraphSAGE: no layers");
  for (size_t i = 0; i < layers.size(); ++i) {
    const Layer& l = layers[i];
    const int64_t in = i == 0 ? l.w_self.rows() : layers[i - 1].w_self.cols();
    RCW_RETURN_IF_ERROR(
        CheckLayerShape("GraphSAGE", i, l.w_self, in, {&l.bias}));
    if (l.w_neigh.rows() != l.w_self.rows() ||
        l.w_neigh.cols() != l.w_self.cols()) {
      return Status::InvalidArgument(
          "GraphSAGE layer " + std::to_string(i) +
          ": w_neigh's shape differs from w_self's");
    }
  }
  return Status::OK();
}

Matrix SageModel::InferSubset(const GraphView& view, const Matrix& features,
                              const std::vector<NodeId>& nodes) const {
  return InferBall(view, features, nodes,
                   std::vector<size_t>(layers_.size() + 1, nodes.size()));
}

// One ParallelFor pass per layer. Pass l averages the neighbours' rows of
// H_l (summed in view order, over the true degree), forms
// h_u·W_self + mean·W_neigh, adds the bias and, below the last layer,
// applies ReLU. Layer 0 reads the feature rows in place.
Matrix SageModel::InferBall(const GraphView& view, const Matrix& features,
                            const std::vector<NodeId>& ball,
                            const std::vector<size_t>& hop_ends) const {
  CheckBall(features, ball, hop_ends);
  const LocalSubgraph sub(view, ball);
  const size_t last = layers_.size() - 1;
  Matrix h;
  for (size_t layer = 0; layer <= last; ++layer) {
    const Layer& L = layers_[layer];
    const int64_t in = L.w_self.rows(), out_width = L.w_self.cols();
    const int64_t in_rows =
        layer == 0 ? static_cast<int64_t>(ball.size()) : h.rows();
    const auto in_row = [&](int64_t r) {
      return layer == 0 ? features.Row(ball[static_cast<size_t>(r)])
                        : h.Row(r);
    };
    const double* bias = L.bias.Row(0);
    // Layer l's rows: those within last − l hops of the seeds.
    Matrix z(static_cast<int64_t>(hop_ends[last - layer]), out_width);
    ParallelFor(DefaultPool(), z.rows(), [&](int64_t i) {
      thread_local std::vector<double> scratch;
      scratch.assign(static_cast<size_t>(in + out_width), 0.0);
      double* mean = scratch.data();
      double* zn = mean + in;
      for (int32_t j : sub.Neighbors(static_cast<size_t>(i))) {
        RCW_CHECK(j < in_rows);  // the previous pass computed row j
        const double* row = in_row(j);
        for (int64_t c = 0; c < in; ++c) mean[c] += row[c];
      }
      // Mean over the *true* neighborhood; isolated nodes aggregate zero.
      const int d = sub.degree(static_cast<size_t>(i));
      const double inv = d > 0 ? 1.0 / static_cast<double>(d) : 0.0;
      for (int64_t c = 0; c < in; ++c) mean[c] *= inv;
      double* out = z.Row(i);
      AddRowTimes(in_row(i), L.w_self, out);
      AddRowTimes(mean, L.w_neigh, zn);
      for (int64_t c = 0; c < out_width; ++c) out[c] += zn[c];
      for (int64_t c = 0; c < out_width; ++c) out[c] += bias[c];
      if (layer == last) return;
      for (int64_t c = 0; c < out_width; ++c) {
        out[c] = out[c] > 0.0 ? out[c] : 0.0;
      }
    }, /*min_grain=*/16);
    h = std::move(z);
  }
  return h;
}

}  // namespace robogexp
