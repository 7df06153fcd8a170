#include "src/gnn/appnp.h"

#include "src/util/thread_pool.h"

namespace robogexp {

AppnpModel::AppnpModel(Matrix theta, Matrix bias, double alpha, PprOptions ppr)
    : theta_(std::move(theta)), bias_(std::move(bias)), alpha_(alpha),
      ppr_(ppr) {
  const Status ok = CheckParameters(theta_, bias_, alpha_);
  RCW_CHECK_MSG(ok.ok(), ok.message().c_str());
  ppr_.alpha = alpha_;
}

Status AppnpModel::CheckParameters(const Matrix& theta, const Matrix& bias,
                                   double alpha) {
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return Status::InvalidArgument("APPNP: alpha must lie in (0, 1)");
  }
  return CheckLayerShape("APPNP", 0, theta, theta.rows(), {&bias});
}

Matrix AppnpModel::InferSubset(const GraphView& view, const Matrix& features,
                               const std::vector<NodeId>& nodes) const {
  // H = XΘ + b restricted to the subset.
  const Matrix h = TransformRows(features, nodes);

  // Column-wise propagation: z_{:,c} = (1-α)(I - αP)^{-1} h_{:,c}.
  const LocalSubgraph sub(view, nodes);
  Matrix z(h.rows(), h.cols());
  std::vector<double> r(nodes.size());
  for (int64_t c = 0; c < h.cols(); ++c) {
    for (size_t i = 0; i < nodes.size(); ++i) {
      r[i] = h.at(static_cast<int64_t>(i), c);
    }
    const std::vector<double> col = SolveIMinusAlphaP(sub, r, ppr_);
    for (size_t i = 0; i < nodes.size(); ++i) {
      z.at(static_cast<int64_t>(i), c) = (1.0 - alpha_) * col[i];
    }
  }
  return z;
}

std::vector<double> AppnpModel::InferNode(const GraphView& view,
                                          const Matrix& features,
                                          NodeId v) const {
  const SparseVector pi = PprPush(view, v, ppr_);
  std::vector<double> z(static_cast<size_t>(num_classes()), 0.0);
  for (const auto& [u, mass] : pi) {
    const double* xu = features.Row(u);
    for (int c = 0; c < num_classes(); ++c) {
      double h = bias_.at(0, c);
      for (int64_t f = 0; f < theta_.rows(); ++f) h += xu[f] * theta_.at(f, c);
      z[static_cast<size_t>(c)] += mass * h;
    }
  }
  return z;
}

Matrix AppnpModel::InferNodes(const GraphView& view, const Matrix& features,
                              const std::vector<NodeId>& nodes) const {
  Matrix out(static_cast<int64_t>(nodes.size()), num_classes());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const std::vector<double> z = InferNode(view, features, nodes[i]);
    for (int c = 0; c < num_classes(); ++c) {
      out.at(static_cast<int64_t>(i), c) = z[static_cast<size_t>(c)];
    }
  }
  return out;
}

Matrix AppnpModel::BaseLogits(const GraphView& view,
                              const Matrix& features) const {
  (void)view;  // H is structure-independent for APPNP.
  Matrix h = Matrix::Multiply(features, theta_);
  h.AddRowVectorInPlace(bias_);
  return h;
}

Matrix AppnpModel::TransformRows(const Matrix& features,
                                 const std::vector<NodeId>& nodes) const {
  // Feature rows are read in place.
  RCW_CHECK(features.cols() == theta_.rows());
  Matrix h(static_cast<int64_t>(nodes.size()), theta_.cols());
  ParallelFor(DefaultPool(), h.rows(), [&](int64_t i) {
    AddRowTimes(features.Row(nodes[static_cast<size_t>(i)]), theta_, h.Row(i));
  }, /*min_grain=*/16);
  h.AddRowVectorInPlace(bias_);
  return h;
}

}  // namespace robogexp
