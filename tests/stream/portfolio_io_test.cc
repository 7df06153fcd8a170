#include "src/stream/portfolio_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/explain/verify.h"
#include "src/gnn/serialize.h"
#include "src/stream/maintain.h"
#include "src/stream/update.h"
#include "src/util/rng.h"
#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

WitnessConfig Config(const Graph* graph, const GnnModel* model,
                     std::vector<NodeId> nodes, int k = 2, int b = 1) {
  WitnessConfig cfg;
  cfg.graph = graph;
  cfg.model = model;
  cfg.test_nodes = std::move(nodes);
  cfg.k = k;
  cfg.local_budget = b;
  cfg.hop_radius = 2;
  return cfg;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
}

/// A hand-built state touching every section of the format.
PortfolioState SampleState() {
  PortfolioState state;
  state.witness.AddEdge(1, 2);
  state.witness.AddEdge(2, 3);
  state.witness.AddNode(7);
  state.witness.AddProtectedPair(4, 5);
  state.witness.AddProtectedPair(1, 9);
  state.unsecured = {3, 8};
  state.outstanding[1] = {Edge(1, 4), Edge(2, 6)};
  state.outstanding[3] = {Edge(3, 5)};
  state.mutation_version = 41;
  state.graph_fingerprint = 0xdeadbeefcafeull;
  state.model_fingerprint = 0x1234567890ull;
  return state;
}

TEST(PortfolioIo, SaveLoadRoundTrip) {
  const PortfolioState state = SampleState();
  const std::string path = TempPath("roundtrip.rwp");
  ASSERT_TRUE(SavePortfolio(state, path).ok());

  const auto loaded = LoadPortfolio(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PortfolioState& got = loaded.value();
  EXPECT_TRUE(got.witness == state.witness);
  EXPECT_EQ(got.witness.ProtectedKeys(), state.witness.ProtectedKeys());
  EXPECT_EQ(got.unsecured, state.unsecured);
  EXPECT_EQ(got.outstanding, state.outstanding);
  EXPECT_EQ(got.mutation_version, state.mutation_version);
  EXPECT_EQ(got.graph_fingerprint, state.graph_fingerprint);
  EXPECT_EQ(got.model_fingerprint, state.model_fingerprint);
  std::remove(path.c_str());
}

TEST(PortfolioIo, MissingFileIsNotFound) {
  const auto r = LoadPortfolio(TempPath("does-not-exist.rwp"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(PortfolioIo, TruncatedFileIsRejected) {
  const std::string path = TempPath("truncated.rwp");
  ASSERT_TRUE(SavePortfolio(SampleState(), path).ok());
  const std::string full = ReadAll(path);

  // Chop the file at every line boundary: no prefix short of the full file
  // may load (the declared counts + end trailer guarantee it).
  size_t pos = 0;
  int prefixes = 0;
  while ((pos = full.find('\n', pos)) != std::string::npos) {
    ++pos;
    if (pos == full.size()) break;
    WriteAll(path, full.substr(0, pos));
    const auto r = LoadPortfolio(path);
    EXPECT_FALSE(r.ok()) << "prefix of " << pos << " bytes loaded";
    if (r.ok()) break;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    ++prefixes;
  }
  EXPECT_GT(prefixes, 5);
  std::remove(path.c_str());
}

TEST(PortfolioIo, CorruptFilesAreRejected) {
  const std::string path = TempPath("corrupt.rwp");
  const std::string cases[] = {
      // Unknown tag.
      "rwp 1\ngraph 1 2\nmodel 3\nwitness 0 0 0\nunsecured 0\n"
      "outstanding 0 0\nbogus 7\nend\n",
      // Wrong format version.
      "rwp 2\ngraph 1 2\nmodel 3\nwitness 0 0 0\nunsecured 0\n"
      "outstanding 0 0\nend\n",
      // Data before the header.
      "graph 1 2\nrwp 1\n",
      // More nodes than declared.
      "rwp 1\ngraph 1 2\nmodel 3\nwitness 1 0 0\nn 1\nn 2\nunsecured 0\n"
      "outstanding 0 0\nend\n",
      // Fewer unsecured entries than declared.
      "rwp 1\ngraph 1 2\nmodel 3\nwitness 0 0 0\nunsecured 2\nu 1\n"
      "outstanding 0 0\nend\n",
      // Outstanding flips shorter than the per-line count.
      "rwp 1\ngraph 1 2\nmodel 3\nwitness 0 0 0\nunsecured 0\n"
      "outstanding 1 2\no 1 2 3 4\nend\n",
      // Self-loop witness edge.
      "rwp 1\ngraph 1 2\nmodel 3\nwitness 2 1 0\nn 1\nn 2\ne 2 2\n"
      "unsecured 0\noutstanding 0 0\nend\n",
      // Duplicate outstanding node.
      "rwp 1\ngraph 1 2\nmodel 3\nwitness 0 0 0\nunsecured 0\n"
      "outstanding 2 2\no 1 1 2 3\no 1 1 4 5\nend\n",
      // Trailing data after end.
      "rwp 1\ngraph 1 2\nmodel 3\nwitness 0 0 0\nunsecured 0\n"
      "outstanding 0 0\nend\nu 3\n",
  };
  for (const std::string& text : cases) {
    WriteAll(path, text);
    const auto r = LoadPortfolio(path);
    ASSERT_FALSE(r.ok()) << "accepted: " << text;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(PortfolioIo, GraphFingerprintTracksContentNotHistory) {
  Graph a = testing::MakeTwoCommunityGraph();
  const uint64_t fp0 = GraphFingerprint(a);
  ASSERT_TRUE(a.RemoveEdge(0, 1).ok());
  const uint64_t fp1 = GraphFingerprint(a);
  EXPECT_NE(fp0, fp1);
  // Same content again — the fingerprint returns even though the
  // mutation_version moved on (content-addressed, not history-addressed).
  ASSERT_TRUE(a.AddEdge(0, 1).ok());
  EXPECT_EQ(GraphFingerprint(a), fp0);

  // An independently built identical graph agrees.
  const Graph b = testing::MakeTwoCommunityGraph();
  EXPECT_EQ(GraphFingerprint(b), fp0);
}

TEST(PortfolioIo, ModelFingerprintSurvivesSaveLoad) {
  const auto& f = testing::TwoCommunityAppnp();
  const uint64_t fp = ModelFingerprint(*f.model);
  const std::string path = TempPath("model_fp.gnn");
  ASSERT_TRUE(SaveModel(*f.model, path).ok());
  const auto reloaded = LoadModel(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(ModelFingerprint(*reloaded.value()), fp);

  // A different model disagrees.
  const auto& g = testing::TwoCommunityGcn();
  EXPECT_NE(ModelFingerprint(*g.model), fp);
  std::remove(path.c_str());
}

std::vector<UpdateBatch> SampleStream(const Graph& graph, double insert_frac,
                                      uint64_t seed, int batches = 5) {
  StreamSampleOptions sopts;
  sopts.num_batches = batches;
  sopts.ops_per_batch = 2;
  sopts.insert_fraction = insert_frac;
  sopts.focus_nodes = {1, 2, 3};
  sopts.hop_radius = 2;
  Rng rng(seed);
  return SampleUpdateStream(graph, sopts, &rng);
}

TEST(PortfolioIo, FastForwardReplaysExactlyTheCoveredPrefix) {
  const Graph base = testing::MakeTwoCommunityGraph();
  const auto stream = SampleStream(base, 0.4, 17);

  // Record the version at every batch boundary of a straight replay.
  Graph straight = base;
  std::vector<uint64_t> versions = {straight.mutation_version()};
  for (const UpdateBatch& b : stream) {
    ASSERT_TRUE(ApplyUpdateBatch(&straight, b).ok());
    versions.push_back(straight.mutation_version());
  }

  for (size_t j = 0; j < versions.size(); ++j) {
    Graph g = base;
    const auto consumed = FastForwardGraph(&g, stream, versions[j]);
    ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
    EXPECT_LE(consumed.value(), j);  // no-op batches need not be consumed
    EXPECT_EQ(g.mutation_version(), versions[j]);
  }

  // A target beyond the stream's final version cannot be reached.
  Graph g = base;
  const auto beyond = FastForwardGraph(&g, stream, versions.back() + 1000);
  ASSERT_FALSE(beyond.ok());
  EXPECT_EQ(beyond.status().code(), StatusCode::kInvalidArgument);

  // A target behind the (already advanced) graph is rejected.
  Graph ahead = base;
  for (const UpdateBatch& b : stream) {
    ASSERT_TRUE(ApplyUpdateBatch(&ahead, b).ok());
  }
  if (ahead.mutation_version() > base.mutation_version()) {
    const auto behind =
        FastForwardGraph(&ahead, stream, base.mutation_version());
    ASSERT_FALSE(behind.ok());
    EXPECT_EQ(behind.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PortfolioIo, AdoptStateExactMatchIsVerbatimAndFree) {
  const auto& f = testing::TwoCommunityAppnp();
  const auto stream = SampleStream(*f.graph, 0.0, 23);

  // Session one: initialize, maintain a few batches, export.
  Graph graph_a = *f.graph;
  WitnessMaintainer a(&graph_a, Config(&graph_a, f.model.get(), {1, 2, 3}),
                      {});
  a.Initialize();
  for (const UpdateBatch& b : stream) ASSERT_TRUE(a.Apply(b).ok());
  const PortfolioState exported = a.ExportState();

  const std::string path = TempPath("exact.rwp");
  ASSERT_TRUE(SavePortfolio(exported, path).ok());
  const auto loaded = LoadPortfolio(path);
  ASSERT_TRUE(loaded.ok());

  // Session two (the restart): fresh graph fast-forwarded to the
  // checkpoint, then a verbatim zero-inference adopt.
  Graph graph_b = *f.graph;
  ASSERT_TRUE(
      FastForwardGraph(&graph_b, stream, loaded.value().mutation_version)
          .ok());
  WitnessMaintainer b(&graph_b, Config(&graph_b, f.model.get(), {1, 2, 3}),
                      {});
  const auto adopted = b.AdoptState(loaded.value());
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_EQ(adopted.value().inference_calls, 0);
  EXPECT_EQ(b.engine().stats().model_invocations, 0);

  EXPECT_TRUE(b.witness() == a.witness());
  EXPECT_EQ(b.witness().ProtectedKeys(), a.witness().ProtectedKeys());
  EXPECT_EQ(b.unsecured(), a.unsecured());
  for (NodeId v : {1, 2, 3}) {
    EXPECT_EQ(b.RemainingBudget(v), a.RemainingBudget(v)) << "node " << v;
  }
  std::remove(path.c_str());
}

TEST(PortfolioIo, AdoptStateRejectsWrongModel) {
  const auto& f = testing::TwoCommunityAppnp();
  Graph graph = *f.graph;
  WitnessMaintainer m(&graph, Config(&graph, f.model.get(), {1, 2}), {});
  m.Initialize();
  PortfolioState state = m.ExportState();
  state.model_fingerprint ^= 1;

  Graph graph2 = *f.graph;
  WitnessMaintainer fresh(&graph2, Config(&graph2, f.model.get(), {1, 2}),
                          {});
  const auto r = fresh.AdoptState(state);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("model fingerprint"),
            std::string::npos);
}

TEST(PortfolioIo, AdoptStateRejectsStateAheadOfGraph) {
  const auto& f = testing::TwoCommunityAppnp();
  const auto stream = SampleStream(*f.graph, 0.0, 29);

  Graph graph_a = *f.graph;
  WitnessMaintainer a(&graph_a, Config(&graph_a, f.model.get(), {1, 2}), {});
  a.Initialize();
  for (const UpdateBatch& b : stream) ASSERT_TRUE(a.Apply(b).ok());
  const PortfolioState state = a.ExportState();
  ASSERT_GT(state.mutation_version, f.graph->mutation_version());

  // Adopting into a graph that was NOT fast-forwarded: the state is ahead.
  Graph graph_b = *f.graph;
  WitnessMaintainer b(&graph_b, Config(&graph_b, f.model.get(), {1, 2}), {});
  const auto r = b.AdoptState(state);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("ahead"), std::string::npos);
}

TEST(PortfolioIo, AdoptStateRejectsWrongGraphAtSameVersion) {
  const auto& f = testing::TwoCommunityAppnp();
  Graph graph = *f.graph;
  WitnessMaintainer m(&graph, Config(&graph, f.model.get(), {1, 2}), {});
  m.Initialize();
  PortfolioState state = m.ExportState();
  state.graph_fingerprint ^= 1;  // same version, different claimed content

  Graph graph2 = *f.graph;
  WitnessMaintainer fresh(&graph2, Config(&graph2, f.model.get(), {1, 2}),
                          {});
  const auto r = fresh.AdoptState(state);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("graph fingerprint"),
            std::string::npos);
}

TEST(PortfolioIo, AdoptStateRejectsNonTestNodeEntries) {
  const auto& f = testing::TwoCommunityAppnp();
  Graph graph = *f.graph;
  WitnessMaintainer m(&graph, Config(&graph, f.model.get(), {1, 2}), {});
  m.Initialize();
  PortfolioState state = m.ExportState();
  state.unsecured.push_back(11);  // not a test node of this config

  Graph graph2 = *f.graph;
  WitnessMaintainer fresh(&graph2, Config(&graph2, f.model.get(), {1, 2}),
                          {});
  const auto r = fresh.AdoptState(state);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(PortfolioIo, StaleStateDegradesToSoundRevalidation) {
  const auto& f = testing::TwoCommunityAppnp();
  const auto stream = SampleStream(*f.graph, 0.4, 31);
  const std::vector<NodeId> tests = {1, 2, 3};

  // Export a checkpoint EARLY (before any batch), then let the live graph
  // move on through the whole stream.
  Graph graph_a = *f.graph;
  WitnessMaintainer a(&graph_a, Config(&graph_a, f.model.get(), tests), {});
  a.Initialize();
  const PortfolioState stale = a.ExportState();
  for (const UpdateBatch& b : stream) ASSERT_TRUE(a.Apply(b).ok());

  // Adopt the stale checkpoint into the moved-on graph: never an error,
  // never a silent stale verdict — full revalidation instead.
  Graph graph_b = *f.graph;
  for (const UpdateBatch& b : stream) {
    ASSERT_TRUE(ApplyUpdateBatch(&graph_b, b).ok());
  }
  WitnessMaintainer b(&graph_b, Config(&graph_b, f.model.get(), tests), {});
  const auto r = b.AdoptState(stale);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Soundness: every covered node verifies on the CURRENT graph.
  const auto unsecured = b.unsecured();
  for (NodeId v : tests) {
    if (std::find(unsecured.begin(), unsecured.end(), v) != unsecured.end()) {
      continue;
    }
    WitnessConfig one = Config(&graph_b, f.model.get(), {v});
    EXPECT_TRUE(VerifyRcw(one, b.witness()).ok) << "node " << v;
  }
}

void CheckpointEquivalence(DisturbanceModel mode, double insert_frac,
                           uint64_t seed) {
  const auto& f = testing::TwoCommunityAppnp();
  const auto stream = SampleStream(*f.graph, insert_frac, seed);
  const std::vector<NodeId> tests = {1, 2, 3};

  // Oracle: uninterrupted maintenance, exporting at every batch boundary.
  Graph oracle_graph = *f.graph;
  WitnessConfig ocfg = Config(&oracle_graph, f.model.get(), tests);
  ocfg.disturbance = mode;
  WitnessMaintainer oracle(&oracle_graph, ocfg, {});
  oracle.Initialize();
  std::vector<PortfolioState> checkpoints = {oracle.ExportState()};
  for (const UpdateBatch& b : stream) {
    ASSERT_TRUE(oracle.Apply(b).ok());
    checkpoints.push_back(oracle.ExportState());
  }

  // Restore-and-continue from EVERY boundary: the final state must be
  // identical to the oracle's — verdicts, unsecured set, and the per-node
  // outstanding budgets all survive the round trip through disk.
  // Per-seed file: ctest runs the two callers in parallel processes.
  const std::string path =
      TempPath("equivalence-" + std::to_string(seed) + ".rwp");
  for (size_t j = 0; j < checkpoints.size(); ++j) {
    ASSERT_TRUE(SavePortfolio(checkpoints[j], path).ok());
    const auto loaded = LoadPortfolio(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    Graph graph = *f.graph;
    const auto consumed =
        FastForwardGraph(&graph, stream, loaded.value().mutation_version);
    ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();

    WitnessConfig cfg = Config(&graph, f.model.get(), tests);
    cfg.disturbance = mode;
    WitnessMaintainer m(&graph, cfg, {});
    const auto adopted = m.AdoptState(loaded.value());
    ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
    EXPECT_EQ(adopted.value().inference_calls, 0) << "boundary " << j;
    for (size_t b = consumed.value(); b < stream.size(); ++b) {
      ASSERT_TRUE(m.Apply(stream[b]).ok());
    }

    EXPECT_TRUE(m.witness() == oracle.witness()) << "boundary " << j;
    EXPECT_EQ(m.witness().ProtectedKeys(), oracle.witness().ProtectedKeys())
        << "boundary " << j;
    EXPECT_EQ(m.unsecured(), oracle.unsecured()) << "boundary " << j;
    for (NodeId v : tests) {
      EXPECT_EQ(m.RemainingBudget(v), oracle.RemainingBudget(v))
          << "boundary " << j << " node " << v;
    }
  }
  std::remove(path.c_str());
}

TEST(PortfolioIo, CheckpointEquivalenceRemovalOnly) {
  CheckpointEquivalence(DisturbanceModel::kRemovalOnly, 0.0, 37);
}

TEST(PortfolioIo, CheckpointEquivalenceFlipMode) {
  CheckpointEquivalence(DisturbanceModel::kFlip, 0.5, 43);
}

TEST(PortfolioIo, ApplyCheckpointsEveryNthBatch) {
  const auto& f = testing::TwoCommunityAppnp();
  const auto stream = SampleStream(*f.graph, 0.0, 47, /*batches=*/4);
  const std::string path = TempPath("auto_checkpoint.rwp");
  std::remove(path.c_str());

  Graph graph = *f.graph;
  MaintainOptions mopts;
  mopts.checkpoint_path = path;
  mopts.checkpoint_every_batches = 2;
  WitnessMaintainer m(&graph, Config(&graph, f.model.get(), {1, 2}), mopts);
  m.Initialize();

  ASSERT_TRUE(m.Apply(stream[0]).ok());
  EXPECT_FALSE(std::ifstream(path).good()) << "checkpointed too early";
  ASSERT_TRUE(m.Apply(stream[1]).ok());
  ASSERT_TRUE(std::ifstream(path).good()) << "no checkpoint after 2 batches";

  const auto loaded = LoadPortfolio(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().mutation_version, graph.mutation_version());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace robogexp
