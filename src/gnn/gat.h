// Graph Attention Network (Veličković et al.), single attention head per
// layer with self-attention over N(u) ∪ {u}:
//     e_{uw} = LeakyReLU( a^T [W h_u || W h_w] ),   α_{uw} = softmax_w e_{uw}
//     h_u' = Σ_w α_{uw} W h_w     (ReLU between layers, linear final layer)
// Inference-only in this library (used to demonstrate model-agnosticism of
// the explainer); weights come from the trainer's distillation constructor or
// deterministic random init.
#ifndef ROBOGEXP_GNN_GAT_H_
#define ROBOGEXP_GNN_GAT_H_

#include <vector>

#include "src/gnn/model.h"

namespace robogexp {

class GatModel final : public GnnModel {
 public:
  struct Layer {
    Matrix w;        // in x out
    Matrix attn_src; // 1 x out — a^T split into source/target halves
    Matrix attn_dst; // 1 x out
    Matrix bias;     // 1 x out
  };

  /// Aborts unless CheckParameters accepts `layers`.
  explicit GatModel(std::vector<Layer> layers);

  /// OK when the layers chain (layer i's w is dims[i] x dims[i+1], every
  /// width positive) and attn_src, attn_dst and bias are 1 x dims[i+1].
  static Status CheckParameters(const std::vector<Layer>& layers);

  std::string name() const override { return "GAT"; }
  int num_layers() const override { return static_cast<int>(layers_.size()); }
  int num_classes() const override {
    return static_cast<int>(layers_.back().w.cols());
  }
  int64_t num_features() const override { return layers_.front().w.rows(); }

  Matrix InferSubset(const GraphView& view, const Matrix& features,
                     const std::vector<NodeId>& nodes) const override;

  const std::vector<Layer>& layers() const { return layers_; }

 protected:
  Matrix InferBall(const GraphView& view, const Matrix& features,
                   const std::vector<NodeId>& ball,
                   const std::vector<size_t>& hop_ends) const override;

 private:
  std::vector<Layer> layers_;
};

}  // namespace robogexp

#endif  // ROBOGEXP_GNN_GAT_H_
