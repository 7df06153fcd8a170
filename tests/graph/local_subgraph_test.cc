#include "src/graph/local_subgraph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

std::vector<NodeId> NeighborIds(const LocalSubgraph& sub, size_t i) {
  std::vector<NodeId> out;
  for (int32_t j : sub.Neighbors(i)) out.push_back(sub.node(j));
  return out;
}

TEST(LocalSubgraph, ListsInSubsetNeighborsInViewOrder) {
  const Graph g = testing::MakeSmallSbm();
  const FullView full(&g);
  const std::vector<NodeId> nodes = KHopBall(full, NodeId{5}, 1);
  LocalSubgraph sub(full, nodes);
  ASSERT_EQ(sub.size(), nodes.size());
  for (size_t i = 0; i < sub.size(); ++i) {
    EXPECT_EQ(sub.LocalId(nodes[i]), static_cast<int32_t>(i));
    EXPECT_EQ(sub.degree(i), g.Degree(nodes[i]));
    std::vector<NodeId> expect;
    for (NodeId w : g.Neighbors(nodes[i])) {
      if (std::count(nodes.begin(), nodes.end(), w) > 0) expect.push_back(w);
    }
    EXPECT_EQ(NeighborIds(sub, i), expect) << "member " << i;
  }
  EXPECT_EQ(sub.LocalId(-1), LocalSubgraph::kAbsent);
  EXPECT_EQ(sub.LocalId(g.num_nodes()), LocalSubgraph::kAbsent);

  sub.SortNeighborsById();
  for (size_t i = 0; i < sub.size(); ++i) {
    const std::vector<NodeId> ids = NeighborIds(sub, i);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end())) << "member " << i;
  }
}

TEST(LocalSubgraph, ABuildLeavesNoMembersBehindForTheNext) {
  const Graph g = testing::MakeSmallSbm();
  const FullView full(&g);
  const LocalSubgraph ball(full, KHopBall(full, NodeId{5}, 1));
  ASSERT_GT(ball.Neighbors(0).size(), 0u);
  const LocalSubgraph alone(full, {NodeId{5}});
  EXPECT_TRUE(alone.Neighbors(0).empty());
  EXPECT_EQ(alone.degree(0), g.Degree(5));
}

}  // namespace
}  // namespace robogexp
