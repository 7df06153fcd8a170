#include "src/graph/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "src/datasets/provenance.h"
#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(GraphIo, RoundTripsStructureFeaturesLabels) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const std::string path = TempPath("two_community.rgx");
  ASSERT_TRUE(SaveGraph(g, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Graph& h = loaded.value();
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.Edges(), g.Edges());
  EXPECT_EQ(h.labels(), g.labels());
  EXPECT_EQ(h.num_classes(), g.num_classes());
  ASSERT_EQ(h.num_features(), g.num_features());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (int64_t c = 0; c < g.num_features(); ++c) {
      EXPECT_DOUBLE_EQ(h.features().at(u, c), g.features().at(u, c));
    }
  }
}

TEST(GraphIo, FeaturesRoundTripBitExactInShortestForm) {
  Graph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  Matrix x(2, 6);
  const double values[] = {0.1234567891, 1.0 / 3.0, 1e-300, 123456789.0, 1.0,
                           0.2};
  for (int64_t c = 0; c < 6; ++c) x.at(0, c) = values[c];
  x.at(1, 2) = -2.5;
  g.SetFeatures(x);
  const std::string path = TempPath("features.rgx");
  ASSERT_TRUE(SaveGraph(g, path).ok());
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // 1 and 0.2 print as they always did, so saved benchmark graphs keep
  // their bytes.
  EXPECT_NE(text.find("f 0 0:0.1234567891 1:0.3333333333333333 2:1e-300 "
                      "3:123456789 4:1 5:0.2\n"),
            std::string::npos)
      << text;
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Matrix& y = loaded.value().features();
  for (NodeId u = 0; u < 2; ++u) {
    for (int64_t c = 0; c < 6; ++c) {
      EXPECT_EQ(y.at(u, c), x.at(u, c)) << u << ":" << c;
    }
  }
}

TEST(GraphIo, RoundTripsNodeNames) {
  const ProvenanceGraph pg = MakeProvenanceGraph();
  const std::string path = TempPath("provenance.rgx");
  ASSERT_TRUE(SaveGraph(pg.graph, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NodeName(pg.breach), "breach.sh");
  EXPECT_EQ(loaded.value().NodeName(pg.cmd), "cmd.exe");
}

TEST(GraphIo, MissingFileIsNotFound) {
  const auto r = LoadGraph("/nonexistent/definitely-missing.rgx");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(GraphIo, RejectsGarbage) {
  const std::string path = TempPath("garbage.rgx");
  for (const char* text : {
           "e 0 1\n",                          // data before header
           "graph 2 0 3 2\nf 0 x:1\n",         // non-numeric feature index
           "graph 2 0 3 2\nf 0 1:y\n",         // non-numeric feature value
           "graph 2 0 3 2\nf 0 :1\n",          // empty feature index
           "graph 2 0 3 2\nf 0 1:nan\n",       // non-finite feature value
           "graph -4 0 3 2\n",                 // negative node count
           "graph 3 1 0 2\ne 2\n",             // truncated edge line
           "graph 2 0 0 2\nl 1 7\n",           // label outside the classes
           "graph 2 0 0 2\nl 1\n",             // truncated label line
           "graph 2 5 0 2\ne 0 1\n",           // header declares 5 edges
           "graph 2 0 0 2\ngraph 2 0 0 2\n",   // second header
       }) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(text, f);
    std::fclose(f);
    const auto r = LoadGraph(path);
    EXPECT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(GraphIo, RejectsBadFeatureIndex) {
  const std::string path = TempPath("badfeat.rgx");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("graph 2 0 3 2\nf 0 7:1.0\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadGraph(path).ok());
}

TEST(GraphIo, TrainedModelAgreesOnReloadedGraph) {
  // End-to-end: inference results are identical on the reloaded graph.
  const auto& f = testing::TwoCommunityAppnp();
  const std::string path = TempPath("fixture.rgx");
  ASSERT_TRUE(SaveGraph(*f.graph, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok());
  const FullView orig(f.graph.get());
  const FullView redo(&loaded.value());
  for (NodeId v = 0; v < f.graph->num_nodes(); ++v) {
    EXPECT_EQ(f.model->Predict(orig, f.graph->features(), v),
              f.model->Predict(redo, loaded.value().features(), v));
  }
}

}  // namespace
}  // namespace robogexp
