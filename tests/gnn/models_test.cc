// Model behaviour shared across all four GNNs: shape contracts, determinism
// (the paper's "fixed, deterministic M"), and the exactness of localized
// single-node inference (InferNode == full-graph Infer).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "src/gnn/trainer.h"
#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

struct ModelCase {
  std::string name;
  std::function<std::unique_ptr<GnnModel>(const Graph&)> make;
};

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

class AllModelsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AllModelsTest, InferShapeMatches) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const auto model = AllModels()[GetParam()].make(g);
  const FullView full(&g);
  const Matrix logits = model->Infer(full, g.features());
  EXPECT_EQ(logits.rows(), g.num_nodes());
  EXPECT_EQ(logits.cols(), g.num_classes());
  EXPECT_TRUE(logits.AllFinite());
}

TEST_P(AllModelsTest, InferenceIsDeterministic) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const auto model = AllModels()[GetParam()].make(g);
  const FullView full(&g);
  const Matrix a = model->Infer(full, g.features());
  const Matrix b = model->Infer(full, g.features());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      EXPECT_DOUBLE_EQ(a.at(i, j), b.at(i, j));
    }
  }
}

// Localized rows (InferNode, and InferNodes over a batch that repeats a
// node) against the full-graph rows. Message-passing models are bitwise
// exact; APPNP's push is exact to its residual threshold, so it gets that
// slack.
void ExpectLocalizedRowsMatchFull(const ModelCase& mc, const GnnModel& model,
                                  const GraphView& view,
                                  const Matrix& features) {
  const Matrix all = model.Infer(view, features);
  std::vector<NodeId> batch;
  for (NodeId v = view.num_nodes() - 1; v >= 0; v -= 5) batch.push_back(v);
  batch.push_back(batch.front());
  const Matrix rows = model.InferNodes(view, features, batch);
  auto expect_row = [&](double got, NodeId v, int c) {
    if (mc.name == "APPNP") {
      EXPECT_NEAR(got, all.at(v, c), 5e-4) << "node " << v << " class " << c;
    } else {
      EXPECT_EQ(got, all.at(v, c)) << "node " << v << " class " << c;
    }
  };
  for (NodeId v = 0; v < view.num_nodes(); ++v) {
    const std::vector<double> local = model.InferNode(view, features, v);
    for (int c = 0; c < model.num_classes(); ++c) {
      expect_row(local[static_cast<size_t>(c)], v, c);
    }
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    for (int c = 0; c < model.num_classes(); ++c) {
      expect_row(rows.at(static_cast<int64_t>(i), c), batch[i], c);
    }
  }
}

TEST_P(AllModelsTest, LocalizedInferNodeMatchesFullInference) {
  const Graph g = testing::MakeSmallSbm();
  const ModelCase mc = AllModels()[GetParam()];
  const auto model = mc.make(g);
  const FullView full(&g);
  ExpectLocalizedRowsMatchFull(mc, *model, full, g.features());
}

TEST_P(AllModelsTest, LocalizedInferenceExactOnOverlays) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const ModelCase mc = AllModels()[GetParam()];
  const auto model = mc.make(g);
  const FullView full(&g);
  const OverlayView overlay(&full, {Edge(0, 1), Edge(2, 8), Edge(1, 7)});
  ExpectLocalizedRowsMatchFull(mc, *model, overlay, g.features());
}

TEST_P(AllModelsTest, PredictIsArgmaxOfInferNode) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const auto model = AllModels()[GetParam()].make(g);
  const FullView full(&g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto logits = model->InferNode(full, g.features(), v);
    Label best = 0;
    for (int c = 1; c < model->num_classes(); ++c) {
      if (logits[static_cast<size_t>(c)] > logits[static_cast<size_t>(best)]) {
        best = c;
      }
    }
    EXPECT_EQ(model->Predict(full, g.features(), v), best);
  }
}

TEST_P(AllModelsTest, IsolatedNodeInferenceIsDefined) {
  // The paper's "trivial case" M(v, v): on the empty-edge view every model
  // must produce finite logits from the node's own features.
  const Graph g = testing::MakeTwoCommunityGraph();
  const auto model = AllModels()[GetParam()].make(g);
  const EdgeSubsetView isolated(g.num_nodes(), {});
  const auto logits = model->InferNode(isolated, g.features(), NodeId{3});
  for (double v : logits) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Models, AllModelsTest,
                         ::testing::Values(0, 1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return AllModels()[info.param].name;
                         });

TEST(Gcn, RemovingBridgeChangesSatellitePrediction) {
  const auto& f = testing::TwoCommunityAppnp();
  const FullView full(f.graph.get());
  // Satellite 1 is anchored to hub 0 only through community edges; cutting
  // its hub link and ring links must eventually flip it (its own features
  // lean contrarian).
  const OverlayView cut(&full,
                        {Edge(0, 1), Edge(1, 2)});
  const Label before = f.model->Predict(full, f.graph->features(), 1);
  const Label after = f.model->Predict(cut, f.graph->features(), 1);
  EXPECT_EQ(before, 0);
  EXPECT_NE(before, after);
}

TEST(Appnp, BaseLogitsAreStructureIndependent) {
  const auto& f = testing::TwoCommunityAppnp();
  const auto* appnp = dynamic_cast<const AppnpModel*>(f.model.get());
  ASSERT_NE(appnp, nullptr);
  const FullView full(f.graph.get());
  const OverlayView cut(&full, {Edge(0, 1)});
  const Matrix h1 = appnp->BaseLogits(full, f.graph->features());
  const Matrix h2 = appnp->BaseLogits(cut, f.graph->features());
  for (int64_t i = 0; i < h1.rows(); ++i) {
    for (int64_t j = 0; j < h1.cols(); ++j) {
      EXPECT_DOUBLE_EQ(h1.at(i, j), h2.at(i, j));
    }
  }
  // And the evidence rows PRI reads are BaseLogits' rows, bit for bit, in
  // any order and with repeats.
  const std::vector<NodeId> nodes{5, 0, 11, 5, 3};
  const Matrix rows = appnp->TransformRows(f.graph->features(), nodes);
  ASSERT_EQ(rows.rows(), static_cast<int64_t>(nodes.size()));
  ASSERT_EQ(rows.cols(), h1.cols());
  const size_t bytes = static_cast<size_t>(h1.cols()) * sizeof(double);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const double* got = rows.Row(static_cast<int64_t>(i));
    EXPECT_EQ(std::memcmp(got, h1.Row(nodes[i]), bytes), 0)
        << "node " << nodes[i];
  }
}

}  // namespace
}  // namespace robogexp
