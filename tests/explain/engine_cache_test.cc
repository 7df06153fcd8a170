// Cached vs uncached inference through the expand–secure–verify loop: the
// engine cache must never change an outcome (bit-identical witnesses and
// verification verdicts), must measurably reduce model invocations, and must
// invalidate witness-view logits exactly when the witness's edge set mutates.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/explain/para.h"
#include "src/explain/robogexp.h"
#include "src/explain/verify.h"
#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

WitnessConfig Config(const testing::TrainedFixture& f,
                     std::vector<NodeId> nodes, int k, int b = 1) {
  WitnessConfig cfg;
  cfg.graph = f.graph.get();
  cfg.model = f.model.get();
  cfg.test_nodes = std::move(nodes);
  cfg.k = k;
  cfg.local_budget = b;
  cfg.hop_radius = 2;
  return cfg;
}

void ExpectSameWitness(const GenerateResult& a, const GenerateResult& b) {
  EXPECT_TRUE(a.witness == b.witness);
  EXPECT_EQ(a.trivial, b.trivial);
  EXPECT_EQ(a.unsecured, b.unsecured);
}

TEST(EngineCache, GenerateRcwIsBitIdenticalCachedVsUncachedAppnp) {
  const auto& f = testing::TwoCommunityAppnp();
  const WitnessConfig cfg = Config(f, {1, 2, 7}, 2);
  GenerateOptions cached_opts;
  GenerateOptions uncached_opts;
  uncached_opts.cache_inference = false;
  const GenerateResult cached = GenerateRcw(cfg, cached_opts);
  const GenerateResult uncached = GenerateRcw(cfg, uncached_opts);
  ExpectSameWitness(cached, uncached);
  // The cache only removes redundant work; it must pay strictly fewer model
  // invocations for the same logical queries.
  EXPECT_LT(cached.stats.inference_calls, uncached.stats.inference_calls);
  EXPECT_GT(cached.stats.cache_hits, 0);
  EXPECT_EQ(uncached.stats.cache_hits, 0);
}

TEST(EngineCache, GenerateRcwIsBitIdenticalCachedVsUncachedGcn) {
  const auto& f = testing::TwoCommunityGcn();
  const WitnessConfig cfg = Config(f, {2, 4}, 1);
  GenerateOptions uncached_opts;
  uncached_opts.cache_inference = false;
  ExpectSameWitness(GenerateRcw(cfg), GenerateRcw(cfg, uncached_opts));
}

TEST(EngineCache, VerifyRcwAgreesAcrossCachedUncachedAndSharedEngines) {
  const auto& f = testing::TwoCommunityAppnp();
  const WitnessConfig cfg = Config(f, {1, 2}, 2);
  const GenerateResult gen = GenerateRcw(cfg);
  ASSERT_TRUE(gen.unsecured.empty());

  const VerifyResult fresh = VerifyRcw(cfg, gen.witness);

  EngineOptions uncached_opts;
  uncached_opts.cache = false;
  uncached_opts.batch = false;
  InferenceEngine uncached(cfg.model, cfg.graph, uncached_opts);
  const VerifyResult raw = VerifyRcw(cfg, gen.witness, &uncached);

  InferenceEngine shared(cfg.model, cfg.graph);
  const VerifyResult first = VerifyRcw(cfg, gen.witness, &shared);
  const VerifyResult second = VerifyRcw(cfg, gen.witness, &shared);

  for (const VerifyResult* r : {&fresh, &raw, &first, &second}) {
    EXPECT_EQ(r->ok, fresh.ok);
    EXPECT_EQ(r->reason, fresh.reason);
    EXPECT_EQ(r->failed_node, fresh.failed_node);
    EXPECT_EQ(r->counterexample, fresh.counterexample);
  }
  // Caching reduces invocations; re-verifying on a warm shared engine only
  // pays for the uncachable ephemeral disturbance checks.
  EXPECT_LT(fresh.inference_calls, raw.inference_calls);
  EXPECT_LT(second.inference_calls, first.inference_calls);
}

TEST(EngineCache, CounterfactualReusesBaseLabelsFromFactualPass) {
  // GCN: batched warms genuinely amortize (one union-ball forward per
  // view), so the cached CW check costs three invocations total.
  const auto& f = testing::TwoCommunityGcn();
  const WitnessConfig cfg = Config(f, {2, 4}, 0);
  const GenerateResult gen = GenerateRcw(cfg);
  ASSERT_TRUE(gen.unsecured.empty());
  // Uncached baseline = the pre-engine code path: the CW check re-ran the
  // factual pass and re-predicted M(v, G) per check (4 calls per node).
  EngineOptions uncached_opts;
  uncached_opts.cache = false;
  uncached_opts.batch = false;
  InferenceEngine uncached(cfg.model, cfg.graph, uncached_opts);
  const VerifyResult raw = VerifyCounterfactual(cfg, gen.witness, &uncached);
  ASSERT_TRUE(raw.ok);
  EXPECT_EQ(raw.inference_calls, 4 * static_cast<int>(cfg.test_nodes.size()));
  // Cached: base labels computed once (one batch), each witness view warmed
  // once — the per-check re-predictions are gone.
  const VerifyResult cached = VerifyCounterfactual(cfg, gen.witness);
  ASSERT_TRUE(cached.ok);
  EXPECT_LE(cached.inference_calls, 3);
  EXPECT_GE(raw.inference_calls, 2 * cached.inference_calls);
}

TEST(EngineCache, WitnessViewCacheInvalidatesOnEdgeMutation) {
  const auto& f = testing::TwoCommunityAppnp();
  InferenceEngine engine(f.model.get(), f.graph.get());
  WitnessEngineViews views(&engine);

  Witness w;
  w.AddEdge(0, 1);
  w.AddEdge(1, 2);
  views.Sync(w);
  const uint64_t v1 = views.synced_version();
  engine.Predict(views.sub_id(), 1);
  engine.Predict(views.sub_id(), 1);
  EXPECT_EQ(engine.stats().model_invocations, 1);  // second was a hit
  EXPECT_EQ(engine.stats().cache_hits, 1);

  // Node-only additions do not change the edge set: no invalidation.
  w.AddNode(5);
  views.Sync(w);
  EXPECT_EQ(views.synced_version(), v1);
  engine.Predict(views.sub_id(), 1);
  EXPECT_EQ(engine.stats().model_invocations, 1);

  // An edge mutation must invalidate: the same query recomputes.
  w.AddEdge(0, 2);
  views.Sync(w);
  EXPECT_NE(views.synced_version(), v1);
  engine.Predict(views.sub_id(), 1);
  EXPECT_EQ(engine.stats().model_invocations, 2);

  // Re-adding an existing edge is a no-op on the edge set: stamp unchanged,
  // cache kept.
  const uint64_t v2 = views.synced_version();
  w.AddEdge(2, 0);
  views.Sync(w);
  EXPECT_EQ(views.synced_version(), v2);
  engine.Predict(views.sub_id(), 1);
  EXPECT_EQ(engine.stats().model_invocations, 2);
}

TEST(EngineCache, ParaGenerateMatchesCachedContractAndReportsEngineStats) {
  const auto& f = testing::SmallSbmAppnp();
  const auto nodes = SelectExplainableTestNodes(*f.model, *f.graph, 4, {}, 5);
  ASSERT_FALSE(nodes.empty());
  const WitnessConfig cfg = Config(f, nodes, 1);
  ParallelOptions popts;
  popts.num_threads = 2;
  ParallelStats ps;
  const GenerateResult r = ParaGenerateRcw(cfg, popts, &ps);
  EXPECT_GT(ps.gen.inference_calls, 0);
  EXPECT_GT(ps.gen.node_queries, 0);
  EXPECT_GT(ps.gen.cache_hits, 0);
  // The parallel generator keeps its output contract: every secured node
  // verifies.
  if (!r.trivial) {
    for (NodeId v : cfg.test_nodes) {
      if (std::find(r.unsecured.begin(), r.unsecured.end(), v) !=
          r.unsecured.end()) {
        continue;
      }
      WitnessConfig one = cfg;
      one.test_nodes = {v};
      EXPECT_TRUE(VerifyRcw(one, r.witness).ok) << "node " << v;
    }
  }
}

}  // namespace
}  // namespace robogexp
