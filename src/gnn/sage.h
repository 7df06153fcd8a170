// GraphSAGE (Hamilton et al.) with the deterministic mean aggregator:
//     h_u^{i+1} = ReLU( h_u^i W_self + mean_{w in N(u)} h_w^i W_nbr + b )
// (full neighborhoods — no sampling — so the model is deterministic, as the
// paper requires of M). Final layer is linear.
#ifndef ROBOGEXP_GNN_SAGE_H_
#define ROBOGEXP_GNN_SAGE_H_

#include <vector>

#include "src/gnn/model.h"

namespace robogexp {

class SageModel final : public GnnModel {
 public:
  struct Layer {
    Matrix w_self;
    Matrix w_neigh;
    Matrix bias;  // 1 x out
  };

  /// Aborts unless CheckParameters accepts `layers`.
  explicit SageModel(std::vector<Layer> layers);

  /// OK when the layers chain (layer i's w_self is dims[i] x dims[i+1], every
  /// width positive), w_neigh has w_self's shape and bias is 1 x dims[i+1].
  static Status CheckParameters(const std::vector<Layer>& layers);

  std::string name() const override { return "GraphSAGE"; }
  int num_layers() const override { return static_cast<int>(layers_.size()); }
  int num_classes() const override {
    return static_cast<int>(layers_.back().w_self.cols());
  }
  int64_t num_features() const override {
    return layers_.front().w_self.rows();
  }

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

#endif  // ROBOGEXP_GNN_SAGE_H_
