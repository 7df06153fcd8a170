// Lemma 4 machinery consistency: for APPNP, the PRI objective
// (1-α)·x(v) with r = H_{:,c} - H_{:,l} must equal the model's actual logit
// contrast z_c(v) - z_l(v) — on the base graph AND under any disturbance
// overlay. This ties the whole adversarial search to real inference: the
// worst-case margin computed by PRI is exactly the margin the classifier
// realizes.
#include <gtest/gtest.h>

#include "src/gnn/appnp.h"
#include "src/ppr/pri.h"
#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

class AppnpPriConsistency : public ::testing::TestWithParam<NodeId> {};

// r = H_c - H_l on `ball`, the search ball of PRI.
std::vector<double> Contrast(const Matrix& h, const std::vector<NodeId>& ball,
                             Label c, Label l) {
  std::vector<double> r(ball.size());
  for (size_t i = 0; i < ball.size(); ++i) {
    r[i] = h.at(ball[i], c) - h.at(ball[i], l);
  }
  return r;
}

TEST_P(AppnpPriConsistency, BaseGainEqualsLogitContrast) {
  const auto& f = testing::TwoCommunityAppnp();
  const auto* appnp = dynamic_cast<const AppnpModel*>(f.model.get());
  ASSERT_NE(appnp, nullptr);
  const FullView full(f.graph.get());
  const Matrix h = appnp->BaseLogits(full, f.graph->features());
  const NodeId v = GetParam();

  PriOptions opts;
  opts.ppr.alpha = appnp->alpha();
  opts.ppr.tolerance = 1e-12;
  opts.ppr.max_iterations = 2000;
  const std::vector<NodeId> ball = CappedBall(full, v, 12, 0);  // all of it

  const std::vector<double> z = appnp->InferNode(full, f.graph->features(), v);
  for (Label c = 0; c < 2; ++c) {
    for (Label l = 0; l < 2; ++l) {
      if (c == l) continue;
      const double gain =
          PprContrastGain(full, ball, Contrast(h, ball, c, l), opts.ppr);
      EXPECT_NEAR(gain,
                  z[static_cast<size_t>(c)] - z[static_cast<size_t>(l)], 1e-4)
          << "node " << v << " contrast " << c << " vs " << l;
    }
  }
}

TEST_P(AppnpPriConsistency, DisturbedGainEqualsDisturbedLogitContrast) {
  const auto& f = testing::TwoCommunityAppnp();
  const auto* appnp = dynamic_cast<const AppnpModel*>(f.model.get());
  ASSERT_NE(appnp, nullptr);
  const FullView full(f.graph.get());
  const Matrix h = appnp->BaseLogits(full, f.graph->features());
  const NodeId v = GetParam();

  PriOptions opts;
  opts.k = 2;
  opts.local_budget = 1;
  opts.ppr.alpha = appnp->alpha();
  opts.ppr.tolerance = 1e-12;
  opts.ppr.max_iterations = 2000;
  const std::vector<NodeId> ball = CappedBall(full, v, 12, 0);

  const Label l = f.model->Predict(full, f.graph->features(), v);
  const Label c = 1 - l;
  const PriResult pri = Pri(full, {}, ball, Contrast(h, ball, c, l), opts);
  if (pri.disturbance.empty()) GTEST_SKIP() << "no improving disturbance";

  // Replay the disturbance through real APPNP inference.
  const OverlayView disturbed(&full, pri.disturbance);
  const std::vector<double> z =
      appnp->InferNode(disturbed, f.graph->features(), v);
  EXPECT_NEAR(pri.disturbed_gain,
              z[static_cast<size_t>(c)] - z[static_cast<size_t>(l)], 1e-4);
  // The adversary really did shrink the margin.
  EXPECT_GT(pri.disturbed_gain, pri.base_gain);
}

INSTANTIATE_TEST_SUITE_P(Nodes, AppnpPriConsistency,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 10, 11));

TEST(AppnpPriConsistency, WorstCaseMarginSignPredictsLabelFlip) {
  // If the disturbed gain stays negative (worst-case margin positive), the
  // disturbed prediction must stay l; if it goes positive, it must flip.
  const auto& f = testing::TwoCommunityAppnp();
  const auto* appnp = dynamic_cast<const AppnpModel*>(f.model.get());
  const FullView full(f.graph.get());
  const Matrix h = appnp->BaseLogits(full, f.graph->features());

  PriOptions opts;
  opts.k = 4;
  opts.local_budget = 2;
  opts.ppr.alpha = appnp->alpha();

  for (NodeId v : testing::TwoCommunitySatellites()) {
    const Label l = f.model->Predict(full, f.graph->features(), v);
    const Label c = 1 - l;
    const std::vector<NodeId> ball = CappedBall(full, v, 12, 0);
    const PriResult pri = Pri(full, {}, ball, Contrast(h, ball, c, l), opts);
    if (pri.disturbance.empty() || std::abs(pri.disturbed_gain) < 1e-6) {
      continue;  // too close to the boundary to assert a sign
    }
    const OverlayView disturbed(&full, pri.disturbance);
    const Label after = f.model->Predict(disturbed, f.graph->features(), v);
    if (pri.disturbed_gain > 0) {
      EXPECT_EQ(after, c) << "node " << v;
    } else {
      EXPECT_EQ(after, l) << "node " << v;
    }
  }
}

}  // namespace
}  // namespace robogexp
