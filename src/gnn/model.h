// GnnModel — the paper's fixed, deterministic inference function M(v, G).
//
// Every model evaluates over a GraphView, so the same trained weights can be
// queried on G, G \ Gs, a disturbed ~G, or the witness subgraph without
// materializing new graphs. Inference can be restricted to a node subset
// (local indexing); `InferNode` exploits the fact that an L-layer
// message-passing GNN's output at v depends only on v's L-hop ball, making a
// single-node query O(ball) instead of O(|G|), and that layer l needs only
// the rows within L−1−l hops of v.
#ifndef ROBOGEXP_GNN_MODEL_H_
#define ROBOGEXP_GNN_MODEL_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/view.h"
#include "src/la/matrix.h"
#include "src/util/status.h"

namespace robogexp {

class GnnModel {
 public:
  virtual ~GnnModel() = default;

  virtual std::string name() const = 0;
  virtual int num_layers() const = 0;
  virtual int num_classes() const = 0;
  virtual int64_t num_features() const = 0;

  /// Logits for the listed nodes (rows follow `nodes` order). Computation is
  /// restricted to `nodes` with true degrees taken from `view`; results are
  /// exact for every node whose receptive field lies inside `nodes`. Every
  /// layer computes every row: the message-passing models run the same
  /// per-layer kernel as InferBall with each row counted as a seed.
  virtual Matrix InferSubset(const GraphView& view, const Matrix& features,
                             const std::vector<NodeId>& nodes) const = 0;

  /// Receptive-field radius used by the default InferNode (L for
  /// message-passing models; APPNP overrides node inference with PPR push).
  virtual int receptive_hops() const { return num_layers(); }

  /// True when single-node inference provably reads nothing outside the
  /// receptive_hops() ball — the property the Sec. VI inference-preserving
  /// partition relies on: a fragment replicating a receptive_hops halo can
  /// serve its owned nodes bit-identically to the whole graph. Models whose
  /// localized inference is adaptive rather than hop-bounded (APPNP's PPR
  /// push runs to tolerance, not to a radius) return false and must be
  /// served from whole-graph shards.
  virtual bool InferenceIsReceptiveLocal() const { return true; }

  /// Full-graph logits (|V| x C).
  Matrix Infer(const GraphView& view, const Matrix& features) const;

  /// Exact localized logits for a single node. The default collects v's
  /// receptive_hops() ball and its hop boundaries with one KHopBall and runs
  /// InferBall on it, so an L-layer model's layer l touches only the rows
  /// within L−1−l hops of v.
  virtual std::vector<double> InferNode(const GraphView& view,
                                        const Matrix& features,
                                        NodeId v) const;

  /// Batched localized inference: logits for each of `nodes` (rows follow
  /// `nodes` order). The default runs ONE InferBall over the union of the
  /// nodes' receptive balls; because an L-layer model's output at v only
  /// reads values computed from v's own ball, every row is bit-identical to
  /// the corresponding InferNode result. Models whose single-node path is
  /// not ball-based (APPNP's PPR push) override this to preserve their exact
  /// per-node numerics.
  virtual Matrix InferNodes(const GraphView& view, const Matrix& features,
                            const std::vector<NodeId>& nodes) const;

  /// True when InferNodes genuinely amortizes: one subset computation serves
  /// the whole batch. Models whose batched path is a per-node loop (APPNP)
  /// return false so the inference engine counts their batches as N
  /// invocations, not one — invocation accounting must reflect actual model
  /// work.
  virtual bool BatchedInferenceAmortizes() const { return true; }

  /// Predicted label for a single node (argmax of InferNode; determinism of
  /// the paper's M is inherited from fixed weights + ordered reductions).
  Label Predict(const GraphView& view, const Matrix& features, NodeId v) const;

  /// Per-node "evidence" logits used as the contrast vector source for
  /// PRI-based robustness reasoning. For APPNP these are the pre-propagation
  /// logits Z = XΘ + b of Eq. 2; other models fall back to their output
  /// logits on the given view (heuristic, verified by inference afterwards).
  virtual Matrix BaseLogits(const GraphView& view,
                            const Matrix& features) const;

 protected:
  /// Logits of the seeds of a receptive ball, for InferNode and InferNodes.
  /// `ball` is KHopBall's list at radius receptive_hops() and hop_ends[h]
  /// counts its leading entries within h hops, so the first hop_ends[0]
  /// entries are the distinct seeds. Row i < hop_ends[0] of the result holds
  /// ball[i]'s logits; later rows, if any, hold nothing meaningful. The
  /// message-passing models compute layer l only on the rows within L−1−l
  /// hops, which the next layer's rows read; the default runs InferSubset on
  /// the whole ball.
  virtual Matrix InferBall(const GraphView& view, const Matrix& features,
                           const std::vector<NodeId>& ball,
                           const std::vector<size_t>& hop_ends) const;

  /// Aborts unless `features` has num_features() columns and `hop_ends`
  /// holds nondecreasing boundaries for hops 0..num_layers(), the last
  /// counting the whole ball.
  void CheckBall(const Matrix& features, const std::vector<NodeId>& ball,
                 const std::vector<size_t>& hop_ends) const;
};

/// OK when `w` can be layer `layer` of a layered model whose previous layer
/// outputs `in` values (for the first layer, w's own row count): w is
/// in x out with in > 0 and out > 0, and every matrix in `row_vectors` (the
/// bias, attention vectors) is 1 x out. `model` names the model in the error.
Status CheckLayerShape(const std::string& model, size_t layer, const Matrix& w,
                       int64_t in,
                       std::initializer_list<const Matrix*> row_vectors);

/// Argmax label of a logit vector (ties break toward the smaller class, the
/// same rule every Predict path uses).
Label ArgmaxLabel(const std::vector<double>& logits);

/// Fraction of `nodes` whose prediction matches `labels`.
double Accuracy(const GnnModel& model, const GraphView& view,
                const Matrix& features, const std::vector<NodeId>& nodes,
                const std::vector<Label>& labels);

}  // namespace robogexp

#endif  // ROBOGEXP_GNN_MODEL_H_
