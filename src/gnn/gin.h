// Graph Isomorphism Network (Xu et al.) with sum aggregation:
//     h_u^{i+1} = ReLU( ((1 + ε)·h_u^i + Σ_{w in N(u)} h_w^i) · W_i + b_i )
// Single-linear update per layer (the common GIN-0 simplification of the
// paper's MLP; ε is a fixed hyperparameter here, not trained). Final layer
// linear. Deterministic, trainable via TrainGin.
#ifndef ROBOGEXP_GNN_GIN_H_
#define ROBOGEXP_GNN_GIN_H_

#include <vector>

#include "src/gnn/model.h"

namespace robogexp {

class GinModel final : public GnnModel {
 public:
  /// Shapes as GcnModel's; aborts unless CheckParameters accepts them.
  GinModel(std::vector<Matrix> weights, std::vector<Matrix> biases,
           double epsilon);

  /// OK when weights[i] is dims[i] x dims[i+1] and biases[i] is
  /// 1 x dims[i+1], with every width positive.
  static Status CheckParameters(const std::vector<Matrix>& weights,
                                const std::vector<Matrix>& biases);

  std::string name() const override { return "GIN"; }
  int num_layers() const override { return static_cast<int>(weights_.size()); }
  int num_classes() const override {
    return static_cast<int>(weights_.back().cols());
  }
  int64_t num_features() const override { return weights_.front().rows(); }

  Matrix InferSubset(const GraphView& view, const Matrix& features,
                     const std::vector<NodeId>& nodes) const override;

  double epsilon() const { return epsilon_; }
  const std::vector<Matrix>& weights() const { return weights_; }
  const std::vector<Matrix>& biases() const { return biases_; }

 protected:
  Matrix InferBall(const GraphView& view, const Matrix& features,
                   const std::vector<NodeId>& ball,
                   const std::vector<size_t>& hop_ends) const override;

 private:
  std::vector<Matrix> weights_;
  std::vector<Matrix> biases_;
  double epsilon_;
};

}  // namespace robogexp

#endif  // ROBOGEXP_GNN_GIN_H_
