// WitnessConfig — the paper's configuration C = (G, Gs, VT, M, k), extended
// with the (k, b)-disturbance local budget and search-locality knobs.
#ifndef ROBOGEXP_EXPLAIN_CONFIG_H_
#define ROBOGEXP_EXPLAIN_CONFIG_H_

#include <vector>

#include "src/gnn/model.h"
#include "src/graph/graph.h"
#include "src/ppr/pri.h"

namespace robogexp {

/// Disturbance semantics.
enum class DisturbanceModel {
  /// Only existing edges may be removed — the paper's experimental setting
  /// ("we adopt a strategy that mainly removes existing edges").
  kRemovalOnly,
  /// Node pairs may be flipped either way (insertions + removals).
  kFlip,
};

struct WitnessConfig {
  const Graph* graph = nullptr;
  const GnnModel* model = nullptr;
  std::vector<NodeId> test_nodes;

  /// Global disturbance budget k. k = 0 degenerates k-RCW to plain CW.
  int k = 5;
  /// Local per-node budget b of the (k, b)-disturbance.
  int local_budget = 2;
  DisturbanceModel disturbance = DisturbanceModel::kRemovalOnly;

  /// Candidate edges and adversarial search are restricted to this hop
  /// radius around each test node (disturbances beyond the receptive field
  /// cannot affect an L-layer message-passing model; for APPNP the residual
  /// PPR mass beyond the radius is below solver tolerance).
  int hop_radius = 3;
  /// Cap on localized PPR solve balls (keeps verification tractable on
  /// Reddit-scale graphs).
  int max_ball_nodes = 20000;
  /// Contrast classes per node considered by PRI-based robustness reasoning:
  /// the top-`max_contrast_classes` runner-up labels (0 = all labels, the
  /// paper's exact loop; >0 trades exactness for speed on many-label data).
  int max_contrast_classes = 0;

  /// PPR/propagation parameters used by PRI (α is taken from the model when
  /// it is an APPNP).
  PprOptions ppr;

  /// Builds the PriOptions implied by this configuration.
  PriOptions MakePriOptions() const {
    PriOptions opts;
    opts.k = k;
    opts.local_budget = local_budget;
    opts.allow_insertions = disturbance == DisturbanceModel::kFlip;
    opts.ppr = ppr;
    return opts;
  }

  /// The ball PRI and expansion search around `v` on `view`.
  std::vector<NodeId> SearchBall(const GraphView& view, NodeId v) const {
    return CappedBall(view, v, hop_radius, max_ball_nodes);
  }

  bool Valid() const {
    return graph != nullptr && model != nullptr && k >= 0 &&
           local_budget >= 1 && hop_radius >= 1;
  }
};

}  // namespace robogexp

#endif  // ROBOGEXP_EXPLAIN_CONFIG_H_
