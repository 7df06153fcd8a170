// Graph Convolutional Network (Kipf & Welling), the paper's experimental
// classifier (3 convolution layers, embedding dimension 128 — Sec. VII):
//     X_i = ReLU( D̂^{-1/2} Â D̂^{-1/2} X_{i-1} Θ_i ),   Â = A + I   (Eq. 1)
// with a linear final layer producing class logits.
#ifndef ROBOGEXP_GNN_GCN_H_
#define ROBOGEXP_GNN_GCN_H_

#include <vector>

#include "src/gnn/model.h"

namespace robogexp {

class GcnModel final : public GnnModel {
 public:
  /// `weights[i]` has shape dims[i] x dims[i+1]; `biases[i]` is 1 x dims[i+1].
  /// dims[0] = num input features, dims.back() = num classes. Aborts unless
  /// CheckParameters accepts them.
  GcnModel(std::vector<Matrix> weights, std::vector<Matrix> biases);

  /// OK when the shapes above hold with every width positive.
  static Status CheckParameters(const std::vector<Matrix>& weights,
                                const std::vector<Matrix>& biases);

  std::string name() const override { return "GCN"; }
  int num_layers() const override { return static_cast<int>(weights_.size()); }
  int num_classes() const override {
    return static_cast<int>(weights_.back().cols());
  }
  int64_t num_features() const override { return weights_.front().rows(); }

  Matrix InferSubset(const GraphView& view, const Matrix& features,
                     const std::vector<NodeId>& nodes) const override;

  const std::vector<Matrix>& weights() const { return weights_; }
  const std::vector<Matrix>& biases() const { return biases_; }

 protected:
  Matrix InferBall(const GraphView& view, const Matrix& features,
                   const std::vector<NodeId>& ball,
                   const std::vector<size_t>& hop_ends) const override;

 private:
  std::vector<Matrix> weights_;
  std::vector<Matrix> biases_;
};

}  // namespace robogexp

#endif  // ROBOGEXP_GNN_GCN_H_
