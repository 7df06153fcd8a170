#include "src/gnn/serialize.h"

#include <gtest/gtest.h>

#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void ExpectSameInference(const GnnModel& a, const GnnModel& b,
                         const Graph& g) {
  const FullView full(&g);
  const Matrix la = a.Infer(full, g.features());
  const Matrix lb = b.Infer(full, g.features());
  ASSERT_EQ(la.rows(), lb.rows());
  ASSERT_EQ(la.cols(), lb.cols());
  for (int64_t i = 0; i < la.rows(); ++i) {
    for (int64_t j = 0; j < la.cols(); ++j) {
      EXPECT_DOUBLE_EQ(la.at(i, j), lb.at(i, j));
    }
  }
}

TEST(ModelSerialize, GcnRoundTripBitExact) {
  const Graph g = testing::MakeTwoCommunityGraph();
  TrainOptions opts;
  opts.epochs = 25;
  opts.hidden_dims = {8, 8};
  const auto model = TrainGcn(g, SampleTrainNodes(g, 0.8, 1), opts);
  const std::string path = TempPath("gcn.gnn");
  ASSERT_TRUE(SaveModel(*model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->name(), "GCN");
  ExpectSameInference(*model, *loaded.value(), g);
}

TEST(ModelSerialize, AppnpRoundTripBitExact) {
  const auto& f = testing::TwoCommunityAppnp();
  const std::string path = TempPath("appnp.gnn");
  ASSERT_TRUE(SaveModel(*f.model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->name(), "APPNP");
  const auto* appnp = dynamic_cast<const AppnpModel*>(loaded.value().get());
  ASSERT_NE(appnp, nullptr);
  EXPECT_DOUBLE_EQ(appnp->alpha(),
                   dynamic_cast<const AppnpModel*>(f.model.get())->alpha());
  ExpectSameInference(*f.model, *loaded.value(), *f.graph);
}

TEST(ModelSerialize, SageRoundTripBitExact) {
  const Graph g = testing::MakeTwoCommunityGraph();
  TrainOptions opts;
  opts.epochs = 25;
  opts.hidden_dims = {8};
  const auto model = TrainSage(g, SampleTrainNodes(g, 0.8, 1), opts);
  const std::string path = TempPath("sage.gnn");
  ASSERT_TRUE(SaveModel(*model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  ExpectSameInference(*model, *loaded.value(), g);
}

TEST(ModelSerialize, GinRoundTripBitExact) {
  const Graph g = testing::MakeTwoCommunityGraph();
  TrainOptions opts;
  opts.epochs = 25;
  opts.hidden_dims = {8};
  const auto model = TrainGin(g, SampleTrainNodes(g, 0.8, 1), opts);
  const std::string path = TempPath("gin.gnn");
  ASSERT_TRUE(SaveModel(*model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->name(), "GIN");
  ExpectSameInference(*model, *loaded.value(), g);
}

TEST(ModelSerialize, GatRoundTripBitExact) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const auto model = MakeRandomGat(g.num_features(), 8, g.num_classes(), 5);
  const std::string path = TempPath("gat.gnn");
  ASSERT_TRUE(SaveModel(*model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  ExpectSameInference(*model, *loaded.value(), g);
}

TEST(ModelSerialize, MissingFileIsNotFound) {
  EXPECT_EQ(LoadModel("/nonexistent/nope.gnn").status().code(),
            StatusCode::kNotFound);
}

TEST(ModelSerialize, GarbageIsRejected) {
  const std::string path = TempPath("garbage.gnn");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not a model\n", f);
    std::fclose(f);
  }
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kInvalidArgument);
}

// Each malformed model returns InvalidArgument instead of aborting in a
// model constructor or allocating for what its headers claim.
void ExpectRejected(const char* name, const std::string& text) {
  const std::string path = TempPath(name);
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text.c_str(), f);
    std::fclose(f);
  }
  const auto loaded = LoadModel(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << name << ": " << loaded.status().ToString();
}

TEST(ModelSerialize, RejectsLayersWhoseWidthsDoNotChain) {
  // Layer 0 outputs 3 values; layer 1 expects 2.
  ExpectRejected("gcn_chain.gnn",
                 "gnnmodel GCN 2\n"
                 "matrix 2 3\n1 2 3\n4 5 6\nmatrix 1 3\n0 0 0\n"
                 "matrix 2 2\n1 0\n0 1\nmatrix 1 2\n0 0\n");
  ExpectRejected("gin_chain.gnn",
                 "gnnmodel GIN 2 0\n"
                 "matrix 2 3\n1 2 3\n4 5 6\nmatrix 1 3\n0 0 0\n"
                 "matrix 2 2\n1 0\n0 1\nmatrix 1 2\n0 0\n");
  ExpectRejected("sage_chain.gnn",
                 "gnnmodel SAGE 2\n"
                 "matrix 2 3\n1 2 3\n4 5 6\nmatrix 2 3\n1 2 3\n4 5 6\n"
                 "matrix 1 3\n0 0 0\n"
                 "matrix 2 2\n1 0\n0 1\nmatrix 2 2\n1 0\n0 1\n"
                 "matrix 1 2\n0 0\n");
  ExpectRejected("gat_chain.gnn",
                 "gnnmodel GAT 2\n"
                 "matrix 2 3\n1 2 3\n4 5 6\nmatrix 1 3\n1 1 1\n"
                 "matrix 1 3\n1 1 1\nmatrix 1 3\n0 0 0\n"
                 "matrix 2 2\n1 0\n0 1\nmatrix 1 2\n1 1\n"
                 "matrix 1 2\n1 1\nmatrix 1 2\n0 0\n");
  // A zero width cannot chain into anything.
  ExpectRejected("gcn_empty.gnn", "gnnmodel GCN 1\nmatrix 0 0\nmatrix 1 0\n");
}

TEST(ModelSerialize, RejectsBiasesAndAttentionVectorsThatAreNotOneByOut) {
  ExpectRejected("gcn_bias_wide.gnn",
                 "gnnmodel GCN 1\nmatrix 2 2\n1 0\n0 1\nmatrix 1 3\n0 0 0\n");
  ExpectRejected("gin_bias_tall.gnn",
                 "gnnmodel GIN 1 0.5\nmatrix 2 2\n1 0\n0 1\n"
                 "matrix 2 2\n0 0\n0 0\n");
  ExpectRejected("sage_bias.gnn",
                 "gnnmodel SAGE 1\nmatrix 2 2\n1 0\n0 1\n"
                 "matrix 2 2\n1 0\n0 1\nmatrix 1 1\n0\n");
  ExpectRejected("gat_attn.gnn",
                 "gnnmodel GAT 1\nmatrix 2 2\n1 0\n0 1\nmatrix 1 2\n1 1\n"
                 "matrix 1 1\n1\nmatrix 1 2\n0 0\n");
  ExpectRejected("appnp_bias.gnn",
                 "gnnmodel APPNP 0.85\nmatrix 2 2\n1 0\n0 1\n"
                 "matrix 1 3\n0 0 0\n");
  ExpectRejected("appnp_alpha.gnn",
                 "gnnmodel APPNP 1.5\nmatrix 2 2\n1 0\n0 1\n"
                 "matrix 1 2\n0 0\n");
}

TEST(ModelSerialize, RejectsSageNeighbourWeightsShapedUnlikeSelfWeights) {
  ExpectRejected("sage_neigh.gnn",
                 "gnnmodel SAGE 1\nmatrix 2 2\n1 0\n0 1\n"
                 "matrix 3 2\n1 0\n0 1\n1 1\nmatrix 1 2\n0 0\n");
}

TEST(ModelSerialize, RejectsHeadersThatClaimMoreThanTheFileHolds) {
  // Read as they come: neither count is allocated up front.
  const std::string layer = "matrix 2 2\n1 0\n0 1\nmatrix 1 2\n0 0\n";
  ExpectRejected("gcn_layers.gnn", "gnnmodel GCN 1000000000\n" + layer);
  ExpectRejected("gin_layers.gnn", "gnnmodel GIN 1000000000 0\n" + layer);
  ExpectRejected("sage_layers.gnn",
                 "gnnmodel SAGE 1000000000\nmatrix 2 2\n1 0\n0 1\n"
                 "matrix 2 2\n1 0\n0 1\nmatrix 1 2\n0 0\n");
  ExpectRejected("gat_layers.gnn", "gnnmodel GAT 1000000000\n");
  ExpectRejected("gcn_entries.gnn",
                 "gnnmodel GCN 1\nmatrix 1000000000 1000000000\n1 2\n");
  ExpectRejected("gcn_overflow.gnn",
                 "gnnmodel GCN 1\nmatrix 4611686018427387904 4\n1\n");
}

TEST(TrainGin, ReachesHighTrainAccuracy) {
  const Graph g = testing::MakeSmallSbm();
  TrainOptions opts;
  opts.epochs = 120;
  opts.hidden_dims = {16};
  opts.learning_rate = 0.005;  // sum aggregation has larger activations
  TrainStats stats;
  const auto model = TrainGin(g, SampleTrainNodes(g, 0.6, 1), opts, &stats);
  EXPECT_GE(stats.train_accuracy, 0.8);
}

TEST(Gin, LocalizedInferenceMatchesFull) {
  const Graph g = testing::MakeTwoCommunityGraph();
  TrainOptions opts;
  opts.epochs = 20;
  opts.hidden_dims = {8};
  const auto model = TrainGin(g, SampleTrainNodes(g, 0.8, 1), opts);
  const FullView full(&g);
  const Matrix all = model->Infer(full, g.features());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto local = model->InferNode(full, g.features(), v);
    for (int c = 0; c < model->num_classes(); ++c) {
      EXPECT_NEAR(local[static_cast<size_t>(c)], all.at(v, c), 1e-6);
    }
  }
}

}  // namespace
}  // namespace robogexp
