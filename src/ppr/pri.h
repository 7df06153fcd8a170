// PRI — greedy policy-iteration search for the worst-case (k, b)-disturbance
// (inner procedure of Algorithm 1, verifyRCW-APPNP).
//
// Given a target node v, its search ball (the nodes within the hop radius)
// and a contrast vector r = Z_{:,c} - Z_{:,l} over the ball's nodes, PRI
// looks for up to k node-pair flips inside the ball (at most b per node,
// never touching protected pairs, i.e. witness edges) that maximize
//     π_Ek(v)^T r  =  (1-α) · x(v),   x = (I - α P')^{-1} r,
// where P' is the random-walk matrix of the disturbed graph. A positive
// maximum means some disturbance pushes v's APPNP score for class c above
// class l — the worst-case margin m*_{l,c}(v) = -(1-α)·x*(v) (Eq. 2).
//
// The per-flip policy-improvement score follows from the PageRank MDP: with
// x_u = r_u + α·mean_{w ∈ N̂(u)} x_w, the current neighborhood mean is
// μ_u = (x_u - r_u)/α, so flipping (u, u') improves the objective iff
//     s(u, u') = (1 - 2·A_{uu'}) · (x_{u'} - μ_u) > 0.
// (The formula printed in the paper is typographically garbled; this is the
// policy-improvement condition it references from Bojchevski & Günnemann.)
#ifndef ROBOGEXP_PPR_PRI_H_
#define ROBOGEXP_PPR_PRI_H_

#include <unordered_set>
#include <vector>

#include "src/graph/view.h"
#include "src/ppr/ppr.h"

namespace robogexp {

struct PriOptions {
  /// Global disturbance budget k.
  int k = 5;
  /// Local per-node budget b of the (k, b)-disturbance.
  int local_budget = 1;
  /// Policy-iteration round cap (fixpoint usually reached in 2-4 rounds).
  int max_rounds = 8;
  /// When true, insertions of absent node pairs are also candidates
  /// (full "flip" disturbance); otherwise removal-only, matching the paper's
  /// experimental setting.
  bool allow_insertions = false;
  /// Per-node cap on insertion candidates considered (top-x(w) targets).
  int insertion_fanout = 8;
  PprOptions ppr;
};

struct PriResult {
  /// The (k, b)-disturbance found (node pairs to flip). May be empty when no
  /// improving flip exists.
  std::vector<Edge> disturbance;
  /// (1-α)·x(v) on the undisturbed view — equals -m_{l,c}(v).
  double base_gain = 0.0;
  /// (1-α)·x(v) under `disturbance` — equals -m*_{l,c}(v) at the optimum.
  double disturbed_gain = 0.0;
  int rounds = 0;
};

/// Runs PRI for target ball[0] inside `ball`, a ball of `base` around it,
/// with contrast vector `r` aligned with `ball`. Pairs whose key is in
/// `protected_keys` (the witness edges Gw) are never flipped.
PriResult Pri(const GraphView& base,
              const std::unordered_set<uint64_t>& protected_keys,
              const std::vector<NodeId>& ball, const std::vector<double>& r,
              const PriOptions& opts);

/// (1-α)·x(ball[0]) solved over `ball` on a fixed view (no disturbance
/// search), `r` aligned with `ball`.
double PprContrastGain(const GraphView& view, const std::vector<NodeId>& ball,
                       const std::vector<double>& r, const PprOptions& opts);

}  // namespace robogexp

#endif  // ROBOGEXP_PPR_PRI_H_
