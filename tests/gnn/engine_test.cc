// InferenceEngine contract tests: cached, uncached, batched, and one-shot
// paths must produce bit-identical logits across every model family, and the
// stats must account for queries, hits, and model invocations honestly.
#include "src/gnn/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <thread>

#include "src/gnn/trainer.h"
#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

struct ModelCase {
  std::string name;
  std::function<std::unique_ptr<GnnModel>(const Graph&)> make;
};

// All five model families of the reproduction.
std::vector<ModelCase> AllModels() {
  TrainOptions quick;
  quick.epochs = 30;
  quick.hidden_dims = {8};
  return {
      {"GCN",
       [quick](const Graph& g) {
         return TrainGcn(g, SampleTrainNodes(g, 0.5, 1), quick);
       }},
      {"APPNP",
       [quick](const Graph& g) {
         return TrainAppnp(g, SampleTrainNodes(g, 0.5, 1), quick);
       }},
      {"SAGE",
       [quick](const Graph& g) {
         return TrainSage(g, SampleTrainNodes(g, 0.5, 1), quick);
       }},
      {"GIN",
       [quick](const Graph& g) {
         return TrainGin(g, SampleTrainNodes(g, 0.5, 1), quick);
       }},
      {"GAT",
       [](const Graph& g) {
         return MakeRandomGat(g.num_features(), 8, g.num_classes(), 99);
       }},
  };
}

class EngineAllModelsTest : public ::testing::TestWithParam<size_t> {};

std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> nodes(static_cast<size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) nodes[static_cast<size_t>(v)] = v;
  return nodes;
}

TEST_P(EngineAllModelsTest, BatchedInferNodesMatchesInferNodeBitwise) {
  const Graph g = testing::MakeSmallSbm();
  const auto model = AllModels()[GetParam()].make(g);
  const FullView full(&g);
  const std::vector<NodeId> nodes = {0, 7, 100, 239, 63};
  const Matrix batched = model->InferNodes(full, g.features(), nodes);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const std::vector<double> single =
        model->InferNode(full, g.features(), nodes[i]);
    for (int c = 0; c < model->num_classes(); ++c) {
      // Bit-identical, not merely close: the batched union-ball computation
      // must perform the same floating-point operations per node.
      EXPECT_EQ(batched.at(static_cast<int64_t>(i), c),
                single[static_cast<size_t>(c)])
          << AllModels()[GetParam()].name << " node " << nodes[i] << " class "
          << c;
    }
  }
}

TEST_P(EngineAllModelsTest, CachedAndUncachedLogitsAreBitIdentical) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const auto model = AllModels()[GetParam()].make(g);
  EngineOptions uncached_opts;
  uncached_opts.cache = false;
  uncached_opts.batch = false;
  InferenceEngine cached(model.get(), &g);
  InferenceEngine uncached(model.get(), &g, uncached_opts);

  const std::vector<NodeId> nodes = AllNodes(g);
  cached.Warm(InferenceEngine::kFullView, nodes);  // batched fill
  for (NodeId v : nodes) {
    const auto a = cached.Logits(InferenceEngine::kFullView, v);
    const auto b = uncached.Logits(InferenceEngine::kFullView, v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
      EXPECT_EQ(a[c], b[c]) << AllModels()[GetParam()].name << " node " << v;
    }
    EXPECT_EQ(cached.Predict(InferenceEngine::kFullView, v),
              uncached.Predict(InferenceEngine::kFullView, v));
  }
  // Cached served everything after one batch; uncached paid per query.
  EXPECT_EQ(cached.stats().cache_hits,
            static_cast<int64_t>(2 * nodes.size()));  // Logits + Predict
  EXPECT_EQ(uncached.stats().cache_hits, 0);
  EXPECT_EQ(uncached.stats().model_invocations,
            static_cast<int64_t>(2 * nodes.size()));  // Logits + Predict
  EXPECT_LT(cached.stats().model_invocations,
            uncached.stats().model_invocations);
}

TEST_P(EngineAllModelsTest, CacheIsConsistentOnOverlayViews) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const auto model = AllModels()[GetParam()].make(g);
  InferenceEngine engine(model.get(), &g);
  const OverlayView overlay(&engine.full_view(),
                            {Edge(0, 1), Edge(2, 8), Edge(1, 7)});
  InferenceEngine::ScopedView slot(&engine, &overlay);
  const std::vector<NodeId> nodes = AllNodes(g);
  engine.Warm(slot.id(), nodes);
  for (NodeId v : nodes) {
    const auto cached_row = engine.Logits(slot.id(), v);
    const auto direct = model->InferNode(overlay, g.features(), v);
    for (size_t c = 0; c < cached_row.size(); ++c) {
      EXPECT_EQ(cached_row[c], direct[c]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, EngineAllModelsTest,
                         ::testing::Values(0, 1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return AllModels()[info.param].name;
                         });

TEST(InferenceEngine, StatsAccountQueriesHitsAndInvocations) {
  const auto& f = testing::TwoCommunityGcn();
  InferenceEngine engine(f.model.get(), f.graph.get());
  engine.Logits(InferenceEngine::kFullView, 1);  // miss
  engine.Logits(InferenceEngine::kFullView, 1);  // hit
  engine.Predict(InferenceEngine::kFullView, 1); // hit
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.node_queries, 3);
  EXPECT_EQ(s.cache_hits, 2);
  EXPECT_EQ(s.model_invocations, 1);
}

TEST(InferenceEngine, WarmBatchesMissesIntoOneInvocation) {
  const auto& f = testing::TwoCommunityGcn();
  InferenceEngine engine(f.model.get(), f.graph.get());
  const std::vector<NodeId> nodes = {1, 2, 3, 4, 5};
  engine.Warm(InferenceEngine::kFullView, nodes);
  EXPECT_EQ(engine.stats().model_invocations, 1);
  EXPECT_EQ(engine.stats().batched_nodes, 5);
  // Re-warming the same nodes is free.
  engine.Warm(InferenceEngine::kFullView, nodes);
  EXPECT_EQ(engine.stats().model_invocations, 1);
  for (NodeId v : nodes) engine.Logits(InferenceEngine::kFullView, v);
  EXPECT_EQ(engine.stats().cache_hits, 5);
  EXPECT_EQ(engine.stats().model_invocations, 1);
}

TEST(InferenceEngine, BindInvalidatesCachedLogits) {
  const auto& f = testing::TwoCommunityGcn();
  InferenceEngine engine(f.model.get(), f.graph.get());
  const OverlayView a(&engine.full_view(), {Edge(0, 1)});
  const OverlayView b(&engine.full_view(), {Edge(0, 2)});
  const InferenceEngine::ViewId id = engine.Register(&a);
  const auto on_a = engine.Logits(id, 1);
  EXPECT_EQ(engine.stats().model_invocations, 1);
  engine.Bind(id, &b);  // edge set changed -> cache must drop
  const auto on_b = engine.Logits(id, 1);
  EXPECT_EQ(engine.stats().model_invocations, 2);
  EXPECT_EQ(engine.stats().cache_hits, 0);
  // And the recomputed logits match direct inference on the new view.
  const auto direct = f.model->InferNode(b, f.graph->features(), 1);
  for (size_t c = 0; c < on_b.size(); ++c) EXPECT_EQ(on_b[c], direct[c]);
}

// Delegates to a trained model, but its single-node inference parks until
// released, so a test can hold a model invocation in flight.
class ParkingModel final : public GnnModel {
 public:
  explicit ParkingModel(const GnnModel* inner) : inner_(inner) {}
  std::string name() const override { return "parking"; }
  int num_layers() const override { return inner_->num_layers(); }
  int num_classes() const override { return inner_->num_classes(); }
  int64_t num_features() const override { return inner_->num_features(); }
  Matrix InferSubset(const GraphView& view, const Matrix& features,
                     const std::vector<NodeId>& nodes) const override {
    return inner_->InferSubset(view, features, nodes);
  }
  std::vector<double> InferNode(const GraphView& view, const Matrix& features,
                                NodeId v) const override {
    entered.count_down();
    release.wait();
    return inner_->InferNode(view, features, v);
  }
  mutable std::latch entered{1};
  mutable std::latch release{1};

 private:
  const GnnModel* inner_;
};

TEST(InferenceEngine, BindWaitsForInFlightReadsOfTheOldView) {
  // The owner of a rebound view destroys it as soon as Bind returns (as
  // WitnessEngineViews::Sync does while serving threads read the same
  // engine), so Bind must outlast every model invocation still reading it.
  const auto& f = testing::TwoCommunityGcn();
  ParkingModel model(f.model.get());
  InferenceEngine engine(&model, f.graph.get());
  const OverlayView a(&engine.full_view(), {Edge(0, 1)});
  const OverlayView b(&engine.full_view(), {Edge(0, 2)});
  const InferenceEngine::ViewId id = engine.Register(&a);
  std::thread reader([&] { engine.Logits(id, 1); });
  model.entered.wait();
  std::atomic<bool> bound{false};
  std::thread binder([&] {
    engine.Bind(id, &b);
    bound = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(bound.load());
  model.release.count_down();
  reader.join();
  binder.join();
  EXPECT_TRUE(bound.load());
}

TEST(InferenceEngine, RebindingTheSameViewDoesNotWaitForItsReads) {
  // Mutate-and-reuse rebinds a slot to its own view. Nothing is freed, so
  // reads of it, which keep starting under serving load, must not hold Bind.
  const auto& f = testing::TwoCommunityGcn();
  ParkingModel model(f.model.get());
  InferenceEngine engine(&model, f.graph.get());
  const OverlayView a(&engine.full_view(), {Edge(0, 1)});
  const InferenceEngine::ViewId id = engine.Register(&a);
  std::thread reader([&] { engine.Logits(id, 1); });
  model.entered.wait();
  std::atomic<bool> bound{false};
  std::thread binder([&] {
    engine.Bind(id, &a);
    bound = true;
  });
  for (int i = 0; i < 500 && !bound.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(bound.load());
  model.release.count_down();
  reader.join();
  binder.join();
}

TEST(InferenceEngine, WarmOverlayBatchesAndMatchesPerNodeOverlayLogits) {
  const auto& f = testing::TwoCommunityGcn();
  InferenceEngine engine(f.model.get(), f.graph.get());
  InferenceEngine reference(f.model.get(), f.graph.get());
  const std::vector<Edge> flips = {Edge(0, 1), Edge(2, 8)};
  const std::vector<NodeId> nodes = {1, 2, 3, 4};
  engine.WarmOverlay(flips, nodes);
  EXPECT_EQ(engine.stats().model_invocations, 1);
  EXPECT_EQ(engine.stats().batched_nodes, 4);
  for (NodeId v : nodes) {
    EXPECT_EQ(engine.LogitsOverlay(flips, v),
              reference.LogitsOverlay(flips, v));
  }
  // All four reads were cache hits on the batched results.
  EXPECT_EQ(engine.stats().model_invocations, 1);
  EXPECT_EQ(engine.stats().cache_hits, 4);
  // Re-warming (also under a reordered, duplicated spelling of the same
  // flip set) is free: the canonical key matches.
  engine.WarmOverlay({Edge(2, 8), Edge(0, 1), Edge(0, 1)}, nodes);
  EXPECT_EQ(engine.stats().model_invocations, 1);
}

TEST(InferenceEngine, OverlayCacheEvictsOldestFlipSetsFifo) {
  const auto& f = testing::TwoCommunityGcn();
  EngineOptions opts;
  opts.max_overlay_entries = 4;
  InferenceEngine engine(f.model.get(), f.graph.get(), opts);
  const std::vector<Edge> flip_sets[] = {
      {Edge(0, 1)}, {Edge(0, 2)}, {Edge(0, 3)}, {Edge(0, 4)}, {Edge(0, 5)}};
  // Fill the cache to its cap: four flip sets, one entry each.
  for (int i = 0; i < 4; ++i) engine.LogitsOverlay(flip_sets[i], 1);
  EXPECT_EQ(engine.stats().model_invocations, 4);
  // A fifth insert evicts only the oldest flip set, not the whole cache.
  engine.LogitsOverlay(flip_sets[4], 1);
  EXPECT_EQ(engine.stats().model_invocations, 5);
  const int64_t hits_before = engine.stats().cache_hits;
  // Sets 2-5 are still warm ...
  for (int i = 1; i < 5; ++i) engine.LogitsOverlay(flip_sets[i], 1);
  EXPECT_EQ(engine.stats().model_invocations, 5);
  EXPECT_EQ(engine.stats().cache_hits, hits_before + 4);
  // ... and only the evicted oldest set recomputes.
  engine.LogitsOverlay(flip_sets[0], 1);
  EXPECT_EQ(engine.stats().model_invocations, 6);
}

TEST(InferenceEngine, OverlayEvictionSkipsStaleFifoEntriesAfterInvalidation) {
  // Regression: a flip set invalidated and later re-warmed must age from its
  // re-creation, not from its original queue position — otherwise eviction
  // drops the hot re-warmed set while genuinely older ones survive.
  const auto& f = testing::TwoCommunityGcn();
  EngineOptions opts;
  opts.max_overlay_entries = 3;
  InferenceEngine engine(f.model.get(), f.graph.get(), opts);
  const std::vector<Edge> set_f = {Edge(0, 1)};
  const std::vector<Edge> set_g = {Edge(0, 2)};
  const std::vector<Edge> set_h = {Edge(0, 3)};
  const std::vector<Edge> set_i = {Edge(0, 4)};
  engine.LogitsOverlay(set_f, 1);          // F enters the FIFO first ...
  engine.InvalidateOverlayNodes({1});      // ... and is dropped entirely.
  engine.LogitsOverlay(set_g, 1);
  engine.LogitsOverlay(set_h, 1);
  engine.LogitsOverlay(set_f, 1);          // F re-created: now the newest.
  // Cache is at its cap of 3 (G, H, F); the next insert must evict G — the
  // oldest live set — not F via its stale original FIFO slot.
  engine.LogitsOverlay(set_i, 1);
  const int64_t calls = engine.stats().model_invocations;
  engine.LogitsOverlay(set_f, 1);  // hit: F survived
  EXPECT_EQ(engine.stats().model_invocations, calls);
  engine.LogitsOverlay(set_g, 1);  // miss: G was evicted
  EXPECT_EQ(engine.stats().model_invocations, calls + 1);
}

TEST(InferenceEngine, EphemeralPredictionsAreCountedNotCached) {
  const auto& f = testing::TwoCommunityGcn();
  InferenceEngine engine(f.model.get(), f.graph.get());
  const OverlayView disturbed(&engine.full_view(), {Edge(0, 1)});
  engine.PredictOn(disturbed, 1);
  engine.PredictOn(disturbed, 1);
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.model_invocations, 2);
  EXPECT_EQ(s.cache_hits, 0);
}

// Regression: GnnModel::InferNode reads row 0 of the subset result as the
// center's logits, which is only sound because KHopBall puts the center
// first. Pin that ordering contract down.
TEST(KHopBall, CenterIsAlwaysFirstAndOrderIsDeterministicBfs) {
  const Graph g = testing::MakeSmallSbm();
  const FullView full(&g);
  for (NodeId v : {NodeId{0}, NodeId{17}, NodeId{100}, NodeId{239}}) {
    for (int hops : {0, 1, 2, 3}) {
      const std::vector<NodeId> ball = KHopBall(full, v, hops);
      ASSERT_FALSE(ball.empty());
      EXPECT_EQ(ball[0], v) << "center must be the first ball entry";
      // Deterministic: two computations agree element-wise.
      EXPECT_EQ(ball, KHopBall(full, v, hops));
    }
  }
  // Multi-seed variant: seeds first, in the given order.
  const std::vector<NodeId> seeds = {42, 7, 199};
  const std::vector<NodeId> ball = KHopBall(full, seeds, 2);
  ASSERT_GE(ball.size(), seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) EXPECT_EQ(ball[i], seeds[i]);
}

}  // namespace
}  // namespace robogexp
