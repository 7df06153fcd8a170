// APPNP — "Predict Then Propagate" (Klicpera et al.), the class of
// Personalized-PageRank GNNs for which the paper's tractability results hold:
//     Z = (1-α) (I - α D̂^{-1} Â)^{-1} · (X Θ + b)
// Prediction is a per-node linear transform followed by PPR propagation;
// single-node inference is served by deterministic local PPR push.
#ifndef ROBOGEXP_GNN_APPNP_H_
#define ROBOGEXP_GNN_APPNP_H_

#include "src/gnn/model.h"
#include "src/ppr/ppr.h"

namespace robogexp {

class AppnpModel final : public GnnModel {
 public:
  /// theta: F x C, bias: 1 x C. `alpha` is the walk-continuation probability
  /// (teleport probability is 1-α). Aborts unless CheckParameters accepts
  /// them.
  AppnpModel(Matrix theta, Matrix bias, double alpha, PprOptions ppr = {});

  /// OK when the shapes above hold with F, C > 0 and 0 < alpha < 1.
  static Status CheckParameters(const Matrix& theta, const Matrix& bias,
                                double alpha);

  std::string name() const override { return "APPNP"; }
  /// Propagation depth is unbounded; report the effective truncation depth.
  int num_layers() const override { return ppr_.max_iterations; }
  int num_classes() const override { return static_cast<int>(theta_.cols()); }
  int64_t num_features() const override { return theta_.rows(); }

  /// InferNode uses adaptive PPR push, so this radius only sizes candidate
  /// balls in the explainer; 3 hops carry the bulk of PPR mass for the α
  /// range used here.
  int receptive_hops() const override { return 3; }

  /// PPR push truncates by residual tolerance, not by hop count, so a
  /// finite-halo fragment cannot guarantee bit-identical logits; APPNP is
  /// served from whole-graph shards only.
  bool InferenceIsReceptiveLocal() const override { return false; }

  Matrix InferSubset(const GraphView& view, const Matrix& features,
                     const std::vector<NodeId>& nodes) const override;

  /// Localized exact-to-tolerance inference via PPR forward push:
  /// Z_v = Σ_u π_v(u) · H_u.
  std::vector<double> InferNode(const GraphView& view, const Matrix& features,
                                NodeId v) const override;

  /// Batched node inference runs the per-node PPR push for each node (not
  /// the default union-ball InferSubset), so batched and single-node paths
  /// stay bit-identical: push truncation depends on the source node, not on
  /// which other nodes share the batch.
  Matrix InferNodes(const GraphView& view, const Matrix& features,
                    const std::vector<NodeId>& nodes) const override;

  /// The batched path above is a per-node loop: a batch of N costs N pushes.
  bool BatchedInferenceAmortizes() const override { return false; }

  /// Pre-propagation per-node logits H = XΘ + b (the paper's Z in Eq. 2).
  Matrix BaseLogits(const GraphView& view,
                    const Matrix& features) const override;

  /// Rows of H for `nodes`, in order: bit for bit BaseLogits' rows.
  Matrix TransformRows(const Matrix& features,
                       const std::vector<NodeId>& nodes) const;

  double alpha() const { return alpha_; }
  const PprOptions& ppr_options() const { return ppr_; }

  const Matrix& theta() const { return theta_; }
  const Matrix& bias() const { return bias_; }

 private:
  Matrix theta_;
  Matrix bias_;
  double alpha_;
  PprOptions ppr_;
};

}  // namespace robogexp

#endif  // ROBOGEXP_GNN_APPNP_H_
