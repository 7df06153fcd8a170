#include "src/ppr/ppr.h"

#include <gtest/gtest.h>

#include <numeric>

#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

std::vector<NodeId> AllNodes(const GraphView& v) {
  std::vector<NodeId> nodes(static_cast<size_t>(v.num_nodes()));
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

TEST(PprPush, MassSumsToOne) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const FullView full(&g);
  PprOptions opts;
  opts.epsilon = 1e-9;
  const SparseVector pi = PprPush(full, NodeId{1}, opts);
  double sum = 0.0;
  for (const auto& [u, m] : pi) {
    EXPECT_GE(m, 0.0);
    sum += m;
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(PprPush, SourceHoldsLargestMass) {
  const Graph g = testing::MakeSmallSbm();
  const FullView full(&g);
  PprOptions opts;
  const SparseVector pi = PprPush(full, NodeId{17}, opts);
  double mx = 0.0;
  NodeId argmax = kInvalidNode;
  for (const auto& [u, m] : pi) {
    if (m > mx) {
      mx = m;
      argmax = u;
    }
  }
  EXPECT_EQ(argmax, 17);
}

class PushVsPowerSweep : public ::testing::TestWithParam<NodeId> {};

TEST_P(PushVsPowerSweep, PushAgreesWithPowerIteration) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const FullView full(&g);
  PprOptions opts;
  opts.epsilon = 1e-10;
  opts.tolerance = 1e-12;
  opts.max_iterations = 500;
  const NodeId src = GetParam();
  const SparseVector push = PprPush(full, src, opts);
  const std::vector<double> power =
      PprPowerIteration(full, src, AllNodes(full), opts);
  for (NodeId u = 0; u < full.num_nodes(); ++u) {
    auto it = push.find(u);
    const double pv = it == push.end() ? 0.0 : it->second;
    EXPECT_NEAR(pv, power[static_cast<size_t>(u)], 1e-4) << "node " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(Sources, PushVsPowerSweep,
                         ::testing::Values(0, 1, 5, 6, 11));

TEST(SolveIMinusAlphaP, SolvesLinearSystem) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const FullView full(&g);
  PprOptions opts;
  opts.tolerance = 1e-13;
  opts.max_iterations = 1000;
  const auto nodes = AllNodes(full);
  std::vector<double> r(nodes.size(), 0.0);
  r[3] = 1.0;
  r[8] = -0.5;
  const auto x = SolveIMinusAlphaP(LocalSubgraph(full, nodes), r, opts);
  // Residual check: x - αPx should equal r.
  for (size_t i = 0; i < nodes.size(); ++i) {
    const auto nbrs = full.Neighbors(nodes[i]);
    double px = x[i];  // self-loop
    for (NodeId w : nbrs) px += x[static_cast<size_t>(w)];
    px /= static_cast<double>(nbrs.size() + 1);
    EXPECT_NEAR(x[i] - opts.alpha * px, r[i], 1e-8);
  }
}

TEST(SolveIMinusAlphaP, ZeroRhsGivesZero) {
  const Graph g = testing::MakePathGraph(6);
  const FullView full(&g);
  const auto nodes = AllNodes(full);
  const auto x = SolveIMinusAlphaP(LocalSubgraph(full, nodes),
                                   std::vector<double>(6, 0.0), {});
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(SolveIMinusAlphaP, RespectsOverlayDisturbance) {
  const Graph g = testing::MakePathGraph(6);
  const FullView full(&g);
  const OverlayView cut(&full, {Edge(2, 3)});
  const auto nodes = AllNodes(full);
  std::vector<double> r(6, 0.0);
  r[5] = 1.0;  // evidence at the far end
  const auto x_full = SolveIMinusAlphaP(LocalSubgraph(full, nodes), r, {});
  const auto x_cut = SolveIMinusAlphaP(LocalSubgraph(cut, nodes), r, {});
  // Node 0 is disconnected from the evidence by the cut: value drops to 0.
  EXPECT_GT(x_full[0], 0.0);
  EXPECT_NEAR(x_cut[0], 0.0, 1e-9);
}

TEST(CappedBall, CapIsRespected) {
  const Graph g = testing::MakeSmallSbm();
  const FullView full(&g);
  const auto ball = CappedBall(full, NodeId{0}, 5, 37);
  EXPECT_LE(ball.size(), 37u);
  EXPECT_EQ(ball.front(), 0);
}

TEST(CappedBall, UncappedMatchesKHop) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const FullView full(&g);
  const auto a = CappedBall(full, NodeId{2}, 2, 0);
  const auto b = KHopBall(full, NodeId{2}, 2);
  EXPECT_EQ(std::set<NodeId>(a.begin(), a.end()),
            std::set<NodeId>(b.begin(), b.end()));
}

}  // namespace
}  // namespace robogexp
