// KHopBall against the BFS it replaced, kept verbatim below as a reference
// (a deque of (node, distance) pairs and a hash set of seen nodes): the
// flat-array, level-by-level walk must return the same order and the same
// hop boundaries on random graphs, on overlay and edge-subset views, for
// repeated seeds, hops 0 to 4 and every kind of cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_set>

#include "src/graph/view.h"
#include "src/util/rng.h"

namespace robogexp {
namespace {

// --- Reference: the pre-change code --------------------------------------

std::vector<NodeId> ReferenceKHopBall(const GraphView& view,
                                      const std::vector<NodeId>& seeds,
                                      int hops, int max_nodes,
                                      std::vector<size_t>* hop_ends) {
  std::vector<NodeId> order;
  std::unordered_set<NodeId> seen;
  std::deque<std::pair<NodeId, int>> frontier;
  for (NodeId s : seeds) {
    if (seen.insert(s).second) {
      order.push_back(s);
      frontier.emplace_back(s, 0);
    }
  }
  // ends[d] is the ball's size after its last entry at distance d so far;
  // BFS appends by nondecreasing distance.
  std::vector<size_t> ends;
  if (hop_ends != nullptr) {
    RCW_CHECK(hops >= 0);
    ends.assign(static_cast<size_t>(hops) + 1, 0);
    ends[0] = order.size();
  }
  std::vector<NodeId> nbrs;
  bool capped = false;
  while (!frontier.empty() && !capped) {
    auto [u, d] = frontier.front();
    frontier.pop_front();
    if (d == hops) continue;
    nbrs.clear();
    view.AppendNeighbors(u, &nbrs);
    std::sort(nbrs.begin(), nbrs.end());  // deterministic order
    for (NodeId w : nbrs) {
      if (max_nodes > 0 && static_cast<int>(order.size()) >= max_nodes) {
        capped = true;
        break;
      }
      if (seen.insert(w).second) {
        order.push_back(w);
        frontier.emplace_back(w, d + 1);
        if (!ends.empty()) ends[static_cast<size_t>(d + 1)] = order.size();
      }
    }
  }
  if (hop_ends != nullptr) {
    for (size_t h = 1; h < ends.size(); ++h) {
      ends[h] = std::max(ends[h], ends[h - 1]);
    }
    *hop_ends = std::move(ends);
  }
  return order;
}

// --- Inputs ---------------------------------------------------------------

// `n` nodes with about `n * degree / 2` uniformly random edges.
Graph RandomGraph(NodeId n, double degree, uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  const int64_t edges = static_cast<int64_t>(n * degree / 2);
  const auto range = static_cast<uint64_t>(n);
  for (int64_t i = 0; i < edges; ++i) {
    const auto u = static_cast<NodeId>(rng.UniformInt(range));
    const auto v = static_cast<NodeId>(rng.UniformInt(range));
    if (u != v) (void)g.AddEdge(u, v);
  }
  return g;
}

// Views of `g`: the graph itself, an overlay that removes every fifth edge
// and inserts random pairs, and the subset view of every third edge.
struct Views {
  explicit Views(const Graph& g, uint64_t seed) : full(&g) {
    const std::vector<Edge> edges = g.Edges();
    std::vector<Edge> flips, kept;
    for (size_t i = 0; i < edges.size(); ++i) {
      if (i % 5 == 0) flips.push_back(edges[i]);
      if (i % 3 == 0) kept.push_back(edges[i]);
    }
    Rng rng(seed);
    const auto n = static_cast<uint64_t>(g.num_nodes());
    for (int i = 0; i < 20; ++i) {
      const auto u = static_cast<NodeId>(rng.UniformInt(n));
      const auto v = static_cast<NodeId>(rng.UniformInt(n));
      if (u != v) flips.emplace_back(u, v);
    }
    overlay = std::make_unique<OverlayView>(&full, flips);
    subset = std::make_unique<EdgeSubsetView>(g.num_nodes(), kept);
  }

  std::vector<const GraphView*> All() const {
    return {&full, overlay.get(), subset.get()};
  }

  FullView full;
  std::unique_ptr<OverlayView> overlay;
  std::unique_ptr<EdgeSubsetView> subset;
};

void ExpectSameBall(const GraphView& view, const std::vector<NodeId>& seeds,
                    int hops, int max_nodes) {
  std::vector<size_t> want_ends, got_ends;
  const std::vector<NodeId> want =
      ReferenceKHopBall(view, seeds, hops, max_nodes, &want_ends);
  const std::vector<NodeId> got =
      KHopBall(view, seeds, hops, max_nodes, &got_ends);
  ASSERT_EQ(got, want) << "hops " << hops << " cap " << max_nodes;
  EXPECT_EQ(got_ends, want_ends) << "hops " << hops << " cap " << max_nodes;
  // Without hop_ends the walk is the same.
  EXPECT_EQ(KHopBall(view, seeds, hops, max_nodes), want);
}

TEST(KHopBallReference, SingleSeedsOnRandomGraphsAndViews) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = RandomGraph(300, 3.0 + static_cast<double>(seed), seed);
    const Views views(g, seed);
    for (const GraphView* view : views.All()) {
      for (NodeId v = 0; v < g.num_nodes(); v += 13) {
        for (int hops = 0; hops <= 4; ++hops) {
          ExpectSameBall(*view, {v}, hops, 0);
        }
        // The single-center overload is the same walk.
        std::vector<size_t> ends, want_ends;
        EXPECT_EQ(KHopBall(*view, v, 3, &ends),
                  ReferenceKHopBall(*view, {v}, 3, 0, &want_ends));
        EXPECT_EQ(ends, want_ends);
      }
    }
  }
}

TEST(KHopBallReference, MultipleAndDuplicateSeeds) {
  const Graph g = RandomGraph(400, 4.0, 7);
  const Views views(g, 7);
  const std::vector<std::vector<NodeId>> seed_sets{
      {17, 3, 17, 230, 64, 3, 128},
      {0, 1, 2, 3, 4, 5},
      {399, 399, 399},
      {250, 12, 250, 12, 77, 310, 5, 77},
  };
  for (const GraphView* view : views.All()) {
    for (const std::vector<NodeId>& seeds : seed_sets) {
      for (int hops = 0; hops <= 4; ++hops) {
        ExpectSameBall(*view, seeds, hops, 0);
      }
    }
  }
}

TEST(KHopBallReference, CapsCutTheSameOrder) {
  const Graph g = RandomGraph(400, 5.0, 11);
  const Views views(g, 11);
  const std::vector<NodeId> seeds{40, 3, 40, 199, 3, 120};
  for (const GraphView* view : views.All()) {
    for (int hops = 0; hops <= 4; ++hops) {
      // Below, at and above the seed count, mid-level and past the ball.
      for (int cap : {1, 2, 4, 5, 9, 33, 100, 250, 1000}) {
        ExpectSameBall(*view, seeds, hops, cap);
      }
    }
  }
}

TEST(KHopBallReference, ConsecutiveCallsStartClean) {
  // The membership flags are per thread and reused: a call must leave none
  // set, including after a capped walk, or the next ball would skip nodes.
  const Graph g = RandomGraph(200, 4.0, 5);
  const FullView full(&g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    (void)KHopBall(full, {v}, 4, 7);
    const auto want = ReferenceKHopBall(full, {v}, 2, 0, nullptr);
    EXPECT_EQ(KHopBall(full, v, 2), want) << "node " << v;
  }
}

TEST(KHopBallReferenceDeath, SeedOutsideTheViewAborts) {
  const Graph g = RandomGraph(10, 2.0, 1);
  const FullView full(&g);
  EXPECT_DEATH(KHopBall(full, std::vector<NodeId>{3, 10}, 1), "RCW_CHECK");
  EXPECT_DEATH(KHopBall(full, std::vector<NodeId>{-1}, 1), "RCW_CHECK");
}

}  // namespace
}  // namespace robogexp
