#include "src/ppr/pri.h"

#include <gtest/gtest.h>

#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

// Contrast vector: evidence for "the other side" of the path/community.
std::vector<double> ContrastAt(int n, NodeId pos, double value = 1.0) {
  std::vector<double> r(static_cast<size_t>(n), 0.0);
  r[static_cast<size_t>(pos)] = value;
  return r;
}

// The entries of `r_global` (indexed by node id) on `ball`.
std::vector<double> OnBall(const std::vector<double>& r_global,
                           const std::vector<NodeId>& ball) {
  std::vector<double> r(ball.size());
  for (size_t i = 0; i < ball.size(); ++i) {
    r[i] = r_global[static_cast<size_t>(ball[i])];
  }
  return r;
}

// PRI for target v over its `hops`-hop ball of `base`.
PriResult PriAround(const GraphView& base,
                    const std::unordered_set<uint64_t>& protected_keys,
                    NodeId v, const std::vector<double>& r_global,
                    const PriOptions& opts, int hops = 3) {
  const std::vector<NodeId> ball = CappedBall(base, v, hops, 0);
  return Pri(base, protected_keys, ball, OnBall(r_global, ball), opts);
}

TEST(Pri, FindsCutThatIsolatesEvidence) {
  // Path 0-1-2-3-4-5; target 0 currently receives contrast mass from node 5.
  // The adversary wants to *maximize* contrast at 0; with removal-only flips
  // no removal increases it, so PRI should return an empty disturbance.
  const Graph g = testing::MakePathGraph(6);
  const FullView full(&g);
  PriOptions opts;
  opts.k = 2;
  opts.local_budget = 2;
  const PriResult res = PriAround(full, {}, 0, ContrastAt(6, 5), opts, 5);
  EXPECT_TRUE(res.disturbance.empty());
  EXPECT_LE(res.disturbed_gain, res.base_gain + 1e-12);
}

TEST(Pri, RemovesEdgesCarryingNegativeEvidence) {
  // Contrast r = Z_c - Z_l: node 5 carries *l* evidence (r = -1), so cutting
  // the path increases the adversarial objective at node 0.
  const Graph g = testing::MakePathGraph(6);
  const FullView full(&g);
  PriOptions opts;
  opts.k = 1;
  opts.local_budget = 1;
  const PriResult res =
      PriAround(full, {}, 0, ContrastAt(6, 5, -1.0), opts, 5);
  ASSERT_FALSE(res.disturbance.empty());
  EXPECT_GT(res.disturbed_gain, res.base_gain);
  // The cut must disconnect 0 from 5: any single path edge works, and the
  // greedy picks one of them.
  EXPECT_EQ(res.disturbance.size(), 1u);
}

TEST(Pri, RespectsGlobalBudgetK) {
  const Graph g = testing::MakeSmallSbm();
  const FullView full(&g);
  std::vector<double> r(static_cast<size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    r[static_cast<size_t>(u)] = (u % 3 == 0) ? -1.0 : 0.2;
  }
  for (int k : {1, 2, 4, 8}) {
    PriOptions opts;
    opts.k = k;
    opts.local_budget = 2;
    const PriResult res = PriAround(full, {}, 5, r, opts);
    EXPECT_LE(static_cast<int>(res.disturbance.size()), k);
  }
}

TEST(Pri, RespectsLocalBudgetB) {
  const Graph g = testing::MakeSmallSbm();
  const FullView full(&g);
  std::vector<double> r(static_cast<size_t>(g.num_nodes()), -0.5);
  PriOptions opts;
  opts.k = 10;
  opts.local_budget = 1;
  const PriResult res = PriAround(full, {}, 5, r, opts);
  std::unordered_map<NodeId, int> load;
  for (const Edge& e : res.disturbance) {
    EXPECT_LE(++load[e.u], 1);
    EXPECT_LE(++load[e.v], 1);
  }
}

TEST(Pri, NeverTouchesProtectedPairs) {
  const Graph g = testing::MakePathGraph(6);
  const FullView full(&g);
  std::unordered_set<uint64_t> protected_keys{Edge(0, 1).Key(),
                                              Edge(1, 2).Key()};
  PriOptions opts;
  opts.k = 3;
  opts.local_budget = 2;
  const PriResult res =
      PriAround(full, protected_keys, 0, ContrastAt(6, 5, -1.0), opts, 5);
  for (const Edge& e : res.disturbance) {
    EXPECT_EQ(protected_keys.count(e.Key()), 0u);
  }
}

TEST(Pri, InsertionModeAttachesToContrastMass) {
  // Node 5 carries contrast-c evidence; target 0. With insertions allowed,
  // the adversary can wire 0's side closer to 5.
  const Graph g = testing::MakePathGraph(6);
  const FullView full(&g);
  PriOptions opts;
  opts.k = 1;
  opts.local_budget = 1;
  opts.allow_insertions = true;
  const PriResult res =
      PriAround(full, {}, 0, ContrastAt(6, 5, 1.0), opts, 5);
  ASSERT_FALSE(res.disturbance.empty());
  EXPECT_GT(res.disturbed_gain, res.base_gain);
  // The inserted pair must be a non-edge of the path.
  const Edge& e = res.disturbance.front();
  EXPECT_FALSE(g.HasEdge(e.u, e.v));
}

TEST(Pri, DeterministicAcrossRuns) {
  const Graph g = testing::MakeSmallSbm();
  const FullView full(&g);
  std::vector<double> r(static_cast<size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    r[static_cast<size_t>(u)] = (u % 5 == 0) ? -1.0 : 0.1;
  }
  PriOptions opts;
  opts.k = 4;
  opts.local_budget = 2;
  const PriResult a = PriAround(full, {}, 9, r, opts);
  const PriResult b = PriAround(full, {}, 9, r, opts);
  EXPECT_EQ(a.disturbance.size(), b.disturbance.size());
  for (size_t i = 0; i < a.disturbance.size(); ++i) {
    EXPECT_EQ(a.disturbance[i], b.disturbance[i]);
  }
  EXPECT_DOUBLE_EQ(a.disturbed_gain, b.disturbed_gain);
}

// (1-α)·x(v) from a direct solve over the base view's 3-hop ball, on
// `view`.
double DirectGain(const GraphView& base, const GraphView& view, NodeId v,
                  const std::vector<double>& r_global, const PriOptions& opts) {
  const std::vector<NodeId> ball = CappedBall(base, v, 3, 0);
  return (1.0 - opts.ppr.alpha) *
         SolveIMinusAlphaP(LocalSubgraph(view, ball), OnBall(r_global, ball),
                           opts.ppr)[0];
}

TEST(Pri, GainsEqualDirectSolvesWhetherCapOrFixpointEndsTheSearch) {
  // Pri reuses its base solve as round 0 and re-solves after the loop only
  // when the round cap ended it; both gains must still be bit-identical to
  // solving the base and the disturbed system from scratch. Removal-only
  // searches here end after 2 rounds, insertion searches after 2 to 4.
  const Graph g = testing::MakeSmallSbm();
  const FullView full(&g);
  std::vector<double> r(static_cast<size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    r[static_cast<size_t>(u)] = (u % 3 == 0) ? -1.0 : 0.2;
  }
  for (bool insertions : {false, true}) {
    const std::vector<NodeId> targets =
        insertions ? std::vector<NodeId>{1, 4, 7, 8}
                   : std::vector<NodeId>{5, 7, 40, 56};
    for (int max_rounds : {1, 8}) {
      for (NodeId v : targets) {
        PriOptions opts;
        opts.k = 4;
        opts.local_budget = 2;
        opts.allow_insertions = insertions;
        opts.max_rounds = max_rounds;
        const PriResult res = PriAround(full, {}, v, r, opts);
        ASSERT_FALSE(res.disturbance.empty()) << "node " << v;
        if (max_rounds > 1) {
          EXPECT_LT(res.rounds, max_rounds) << "node " << v;
        }
        EXPECT_EQ(res.base_gain, DirectGain(full, full, v, r, opts));
        const OverlayView disturbed(&full, res.disturbance);
        EXPECT_EQ(res.disturbed_gain, DirectGain(full, disturbed, v, r, opts));
      }
    }
  }
}

TEST(PprContrastGain, MatchesPriBaseGain) {
  const Graph g = testing::MakePathGraph(8);
  const FullView full(&g);
  PriOptions opts;
  const std::vector<NodeId> ball = CappedBall(full, 0, 7, 0);
  const auto r = OnBall(ContrastAt(8, 7, 1.0), ball);
  const double gain = PprContrastGain(full, ball, r, opts.ppr);
  const PriResult res = Pri(full, {}, ball, r, opts);
  EXPECT_EQ(gain, res.base_gain);
  EXPECT_GT(gain, 0.0);
}

}  // namespace
}  // namespace robogexp
