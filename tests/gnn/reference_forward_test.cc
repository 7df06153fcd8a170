// The message-passing forwards against references: the per-layer forwards
// the models ran before each layer became one fused, hop-pruned pass, kept
// verbatim here (a whole-matrix Multiply, then aggregation, bias and ReLU
// passes, with every layer computing every row) apart from reading weights
// through the models' accessors. Every public inference path must match
// them bit for bit; the localized paths are compared against the reference
// run over the same KHopBall ball. Also checks KHopBall's hop boundaries,
// which the pruned forwards trust, against brute-force BFS distances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <set>

#include "src/datasets/synthetic.h"
#include "src/gnn/trainer.h"
#include "src/graph/local_subgraph.h"
#include "src/ppr/ppr.h"
#include "src/util/thread_pool.h"
#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

// --- References: the pre-change code -------------------------------------
// Locals keep the member names (weights_, layers_, ...) of the code they
// were copied from.

Matrix GatherRows(const Matrix& m, const std::vector<NodeId>& rows) {
  Matrix out(static_cast<int64_t>(rows.size()), m.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::copy(m.Row(rows[i]), m.Row(rows[i]) + m.cols(),
              out.Row(static_cast<int64_t>(i)));
  }
  return out;
}

Matrix Multiply(const Matrix& a, const Matrix& b) {
  RCW_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  ParallelFor(DefaultPool(), n, [&](int64_t i) {
    const double* arow = a.Row(i);
    double* crow = c.Row(i);
    for (int64_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b.Row(p);
      for (int64_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }, /*min_grain=*/16);
  return c;
}

Matrix GcnReference(const GnnModel& model, const GraphView& view,
                    const Matrix& features, const std::vector<NodeId>& nodes) {
  const auto& gcn = dynamic_cast<const GcnModel&>(model);
  const std::vector<Matrix>& weights_ = gcn.weights();
  const std::vector<Matrix>& biases_ = gcn.biases();
  const LocalSubgraph sub(view, nodes);
  const int64_t n = static_cast<int64_t>(nodes.size());
  // True normalized degrees (Â = A + I), not the subset's.
  std::vector<double> inv_sqrt_deg(sub.size());
  for (size_t i = 0; i < sub.size(); ++i) {
    inv_sqrt_deg[i] = 1.0 / std::sqrt(static_cast<double>(sub.degree(i) + 1));
  }
  Matrix h = GatherRows(features, nodes);

  for (size_t layer = 0; layer < weights_.size(); ++layer) {
    const Matrix t = Multiply(h, weights_[layer]);
    Matrix agg(n, t.cols());
    ParallelFor(DefaultPool(), n, [&](int64_t i) {
      const double di = inv_sqrt_deg[static_cast<size_t>(i)];
      double* out = agg.Row(i);
      // Self-loop term: Â includes I, normalization 1/d̂_i.
      const double* self_row = t.Row(i);
      for (int64_t c = 0; c < t.cols(); ++c) out[c] = di * di * self_row[c];
      for (int32_t j : sub.Neighbors(static_cast<size_t>(i))) {
        const double w = di * inv_sqrt_deg[static_cast<size_t>(j)];
        const double* row = t.Row(j);
        for (int64_t c = 0; c < t.cols(); ++c) out[c] += w * row[c];
      }
    }, /*min_grain=*/16);
    agg.AddRowVectorInPlace(biases_[layer]);
    if (layer + 1 < weights_.size()) agg.ReluInPlace();
    h = std::move(agg);
  }
  return h;
}

Matrix GinReference(const GnnModel& model, const GraphView& view,
                    const Matrix& features, const std::vector<NodeId>& nodes) {
  const auto& gin = dynamic_cast<const GinModel&>(model);
  const std::vector<Matrix>& weights_ = gin.weights();
  const std::vector<Matrix>& biases_ = gin.biases();
  const double epsilon_ = gin.epsilon();
  const LocalSubgraph sub(view, nodes);
  const int64_t n = static_cast<int64_t>(nodes.size());
  Matrix h = GatherRows(features, nodes);

  for (size_t layer = 0; layer < weights_.size(); ++layer) {
    Matrix agg(n, h.cols());
    ParallelFor(DefaultPool(), n, [&](int64_t i) {
      double* out = agg.Row(i);
      const double* self_row = h.Row(i);
      for (int64_t c = 0; c < h.cols(); ++c) {
        out[c] = (1.0 + epsilon_) * self_row[c];
      }
      for (int32_t j : sub.Neighbors(static_cast<size_t>(i))) {
        const double* row = h.Row(j);
        for (int64_t c = 0; c < h.cols(); ++c) out[c] += row[c];
      }
    }, /*min_grain=*/16);
    Matrix z = Multiply(agg, weights_[layer]);
    z.AddRowVectorInPlace(biases_[layer]);
    if (layer + 1 < weights_.size()) z.ReluInPlace();
    h = std::move(z);
  }
  return h;
}

Matrix SageReference(const GnnModel& model, const GraphView& view,
                     const Matrix& features,
                     const std::vector<NodeId>& nodes) {
  const std::vector<SageModel::Layer>& layers_ =
      dynamic_cast<const SageModel&>(model).layers();
  const LocalSubgraph sub(view, nodes);
  const int64_t n = static_cast<int64_t>(nodes.size());
  Matrix h = GatherRows(features, nodes);

  for (size_t layer = 0; layer < layers_.size(); ++layer) {
    const SageModel::Layer& L = layers_[layer];
    // Neighborhood means.
    Matrix mean(n, h.cols());
    ParallelFor(DefaultPool(), n, [&](int64_t i) {
      double* out = mean.Row(i);
      for (int32_t j : sub.Neighbors(static_cast<size_t>(i))) {
        const double* row = h.Row(j);
        for (int64_t c = 0; c < h.cols(); ++c) out[c] += row[c];
      }
      // Mean over the *true* neighborhood; isolated nodes aggregate zero.
      const int d = sub.degree(static_cast<size_t>(i));
      const double inv = d > 0 ? 1.0 / static_cast<double>(d) : 0.0;
      for (int64_t c = 0; c < h.cols(); ++c) out[c] *= inv;
    }, /*min_grain=*/16);
    Matrix z = Multiply(h, L.w_self);
    const Matrix zn = Multiply(mean, L.w_neigh);
    z.AddInPlace(zn);
    z.AddRowVectorInPlace(L.bias);
    if (layer + 1 < layers_.size()) z.ReluInPlace();
    h = std::move(z);
  }
  return h;
}

double LeakyRelu(double x) { return x > 0.0 ? x : 0.2 * x; }

Matrix GatReference(const GnnModel& model, const GraphView& view,
                    const Matrix& features, const std::vector<NodeId>& nodes) {
  const std::vector<GatModel::Layer>& layers_ =
      dynamic_cast<const GatModel&>(model).layers();
  LocalSubgraph sub(view, nodes);
  sub.SortNeighborsById();
  const int64_t n = static_cast<int64_t>(nodes.size());
  Matrix h = GatherRows(features, nodes);

  for (size_t layer = 0; layer < layers_.size(); ++layer) {
    const GatModel::Layer& L = layers_[layer];
    const Matrix t = Multiply(h, L.w);  // n x out
    // Per-node attention scalars: src_u = a_src · t_u, dst_u = a_dst · t_u.
    const Matrix attn_s = Matrix::MultiplyTransposed(t, L.attn_src);
    const Matrix attn_d = Matrix::MultiplyTransposed(t, L.attn_dst);
    Matrix z(n, t.cols());
    ParallelFor(DefaultPool(), n, [&](int64_t i) {
      const std::span<const int32_t> nbrs =
          sub.Neighbors(static_cast<size_t>(i));
      // Softmax over {i} ∪ local neighbors of i.
      std::vector<double> weights;
      weights.reserve(nbrs.size() + 1);
      weights.push_back(LeakyRelu(attn_s.at(i, 0) + attn_d.at(i, 0)));
      for (int32_t j : nbrs) {
        weights.push_back(LeakyRelu(attn_s.at(i, 0) + attn_d.at(j, 0)));
      }
      double mx = weights[0];
      for (double wgt : weights) mx = std::max(mx, wgt);
      double sum = 0.0;
      for (double& wgt : weights) {
        wgt = std::exp(wgt - mx);
        sum += wgt;
      }
      for (double& wgt : weights) wgt /= sum;
      double* out = z.Row(i);
      const double* self_row = t.Row(i);
      for (int64_t c = 0; c < t.cols(); ++c) out[c] = weights[0] * self_row[c];
      for (size_t p = 0; p < nbrs.size(); ++p) {
        const double* row = t.Row(nbrs[p]);
        for (int64_t c = 0; c < t.cols(); ++c) {
          out[c] += weights[p + 1] * row[c];
        }
      }
    }, /*min_grain=*/16);
    z.AddRowVectorInPlace(L.bias);
    if (layer + 1 < layers_.size()) z.ReluInPlace();
    h = std::move(z);
  }
  return h;
}

Matrix AppnpReference(const GnnModel& model, const GraphView& view,
                      const Matrix& features,
                      const std::vector<NodeId>& nodes) {
  const auto& appnp = dynamic_cast<const AppnpModel&>(model);
  const Matrix& theta_ = appnp.theta();
  const Matrix& bias_ = appnp.bias();
  const double alpha_ = appnp.alpha();
  const PprOptions& ppr_ = appnp.ppr_options();
  // H = XΘ + b restricted to the subset.
  Matrix h = Multiply(GatherRows(features, nodes), theta_);
  h.AddRowVectorInPlace(bias_);

  // Column-wise propagation: z_{:,c} = (1-α)(I - αP)^{-1} h_{:,c}.
  const LocalSubgraph sub(view, nodes);
  Matrix z(h.rows(), h.cols());
  std::vector<double> r(nodes.size());
  for (int64_t c = 0; c < h.cols(); ++c) {
    for (size_t i = 0; i < nodes.size(); ++i) {
      r[i] = h.at(static_cast<int64_t>(i), c);
    }
    const std::vector<double> col = SolveIMinusAlphaP(sub, r, ppr_);
    for (size_t i = 0; i < nodes.size(); ++i) {
      z.at(static_cast<int64_t>(i), c) = (1.0 - alpha_) * col[i];
    }
  }
  return z;
}

// --- Cases ----------------------------------------------------------------

using Reference = std::function<Matrix(const GnnModel&, const GraphView&,
                                       const Matrix&,
                                       const std::vector<NodeId>&)>;

struct RefCase {
  std::string name;
  std::function<std::unique_ptr<GnnModel>(const Graph&)> make;
  Reference reference;
};

std::unique_ptr<GnnModel> ThreeLayerGat(const Graph& g) {
  Rng rng(7);
  std::vector<GatModel::Layer> layers;
  const std::vector<int64_t> dims{g.num_features(), 8, 8, g.num_classes()};
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    GatModel::Layer l;
    l.w = Matrix::Xavier(dims[i], dims[i + 1], &rng);
    l.attn_src = Matrix::Xavier(1, dims[i + 1], &rng);
    l.attn_dst = Matrix::Xavier(1, dims[i + 1], &rng);
    l.bias = Matrix::Xavier(1, dims[i + 1], &rng);
    layers.push_back(std::move(l));
  }
  return std::make_unique<GatModel>(std::move(layers));
}

std::vector<RefCase> Cases() {
  TrainOptions opts;
  opts.epochs = 20;
  opts.hidden_dims = {8, 8};
  const auto train = [](const Graph& g) { return SampleTrainNodes(g, 0.5, 1); };
  return {
      {"GCN", [=](const Graph& g) { return TrainGcn(g, train(g), opts); },
       GcnReference},
      {"GIN",
       [=](const Graph& g) {
         // The trainer fixes ε = 0; a nonzero ε exercises the self term.
         const auto gin = TrainGin(g, train(g), opts);
         return std::make_unique<GinModel>(gin->weights(), gin->biases(),
                                           0.25);
       },
       GinReference},
      {"SAGE", [=](const Graph& g) { return TrainSage(g, train(g), opts); },
       SageReference},
      {"GAT", ThreeLayerGat, GatReference},
  };
}

// A 240-node SBM with sparse binary features over 96 columns, so feature
// rows span two of AddRowTimes' 64-entry blocks.
Graph TestGraph() {
  SbmOptions opts;
  opts.num_nodes = 240;
  opts.num_classes = 4;
  opts.feature_dim = 96;
  opts.seed = 3;
  return MakeSbmGraph(opts);
}

// Removals and insertions, so degrees and neighbour lists both move.
OverlayView MakeOverlay(const Graph& g, const GraphView* full) {
  const std::vector<Edge> edges = g.Edges();
  return OverlayView(full, {edges[0], edges[7], edges[40], Edge(0, 200),
                            Edge(3, 150)});
}

std::vector<NodeId> AllNodes(const GraphView& view) {
  std::vector<NodeId> all(static_cast<size_t>(view.num_nodes()));
  for (NodeId u = 0; u < view.num_nodes(); ++u) all[static_cast<size_t>(u)] = u;
  return all;
}

void ExpectBitwiseEqualRow(const double* got, const double* want, int64_t n,
                           const std::string& what) {
  EXPECT_EQ(std::memcmp(got, want, static_cast<size_t>(n) * sizeof(double)),
            0)
      << what;
}

void ExpectBitwiseEqual(const Matrix& got, const Matrix& want,
                        const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (int64_t r = 0; r < got.rows(); ++r) {
    ExpectBitwiseEqualRow(got.Row(r), want.Row(r), got.cols(),
                          what + " row " + std::to_string(r));
  }
}

class ReferenceForwardTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    graph_ = std::make_unique<Graph>(TestGraph());
    model_ = Cases()[GetParam()].make(*graph_);
    full_ = std::make_unique<FullView>(graph_.get());
    overlay_ =
        std::make_unique<OverlayView>(MakeOverlay(*graph_, full_.get()));
  }

  std::vector<const GraphView*> Views() const {
    return {full_.get(), overlay_.get()};
  }

  const RefCase& Case() const {
    static const std::vector<RefCase> cases = Cases();
    return cases[GetParam()];
  }

  std::unique_ptr<Graph> graph_;
  std::unique_ptr<GnnModel> model_;
  std::unique_ptr<FullView> full_;
  std::unique_ptr<OverlayView> overlay_;
};

TEST_P(ReferenceForwardTest, InferMatchesOnFullAndOverlayViews) {
  const Matrix& x = graph_->features();
  for (const GraphView* view : Views()) {
    const Matrix want = Case().reference(*model_, *view, x, AllNodes(*view));
    ExpectBitwiseEqual(model_->Infer(*view, x), want, "Infer");
    ExpectBitwiseEqual(model_->BaseLogits(*view, x), want, "BaseLogits");
  }
}

TEST_P(ReferenceForwardTest, InferSubsetMatchesOnANonBallSubset) {
  // Every third node in descending order: no ball, rows out of id order,
  // many neighbours outside the subset.
  std::vector<NodeId> subset;
  for (NodeId u = graph_->num_nodes() - 1; u >= 0; u -= 3) subset.push_back(u);
  const Matrix& x = graph_->features();
  for (const GraphView* view : Views()) {
    ExpectBitwiseEqual(model_->InferSubset(*view, x, subset),
                       Case().reference(*model_, *view, x, subset),
                       "InferSubset");
  }
}

TEST_P(ReferenceForwardTest, InferNodeMatchesTheReferenceOnItsBall) {
  const Matrix& x = graph_->features();
  for (const GraphView* view : Views()) {
    for (NodeId v = 0; v < view->num_nodes(); ++v) {
      const std::vector<NodeId> ball =
          KHopBall(*view, v, model_->receptive_hops());
      const Matrix want = Case().reference(*model_, *view, x, ball);
      const std::vector<double> got = model_->InferNode(*view, x, v);
      ASSERT_EQ(static_cast<int64_t>(got.size()), want.cols());
      ExpectBitwiseEqualRow(got.data(), want.Row(0), want.cols(),
                            "InferNode " + std::to_string(v));
    }
  }
}

TEST_P(ReferenceForwardTest, InferNodesWithARepeatedNodeMatches) {
  const std::vector<NodeId> batch{17, 3, 17, 230, 64, 3, 128};
  const Matrix& x = graph_->features();
  for (const GraphView* view : Views()) {
    const std::vector<NodeId> ball =
        KHopBall(*view, batch, model_->receptive_hops());
    const Matrix want = Case().reference(*model_, *view, x, ball);
    const Matrix got = model_->InferNodes(*view, x, batch);
    ASSERT_EQ(got.rows(), static_cast<int64_t>(batch.size()));
    for (size_t i = 0; i < batch.size(); ++i) {
      const int64_t r = std::find(ball.begin(), ball.end(), batch[i]) -
                        ball.begin();
      ExpectBitwiseEqualRow(got.Row(static_cast<int64_t>(i)), want.Row(r),
                            want.cols(), "InferNodes row " + std::to_string(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, ReferenceForwardTest,
                         ::testing::Values(0, 1, 2, 3),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return Cases()[info.param].name;
                         });

// APPNP's subset forward reads its feature rows in place as well; its node
// paths are PPR pushes, untouched by the layered forwards.
TEST(ReferenceForwardAppnp, InferAndInferSubsetMatch) {
  const Graph g = TestGraph();
  TrainOptions opts;
  opts.epochs = 20;
  const auto model = TrainAppnp(g, SampleTrainNodes(g, 0.5, 1), opts);
  const FullView full(&g);
  const OverlayView overlay = MakeOverlay(g, &full);
  std::vector<NodeId> subset;
  for (NodeId u = g.num_nodes() - 1; u >= 0; u -= 3) subset.push_back(u);
  for (const GraphView* view : std::vector<const GraphView*>{&full, &overlay}) {
    ExpectBitwiseEqual(model->Infer(*view, g.features()),
                       AppnpReference(*model, *view, g.features(),
                                      AllNodes(*view)),
                       "Infer");
    ExpectBitwiseEqual(model->InferSubset(*view, g.features(), subset),
                       AppnpReference(*model, *view, g.features(), subset),
                       "InferSubset");
  }
}

// --- KHopBall's hop boundaries --------------------------------------------

// Exact distances from the nearest seed; -1 where unreachable.
std::vector<int> BruteForceDistances(const GraphView& view,
                                     const std::vector<NodeId>& seeds) {
  std::vector<int> dist(static_cast<size_t>(view.num_nodes()), -1);
  std::deque<NodeId> queue;
  for (NodeId s : seeds) {
    if (dist[static_cast<size_t>(s)] < 0) {
      dist[static_cast<size_t>(s)] = 0;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId w : view.Neighbors(u)) {
      if (dist[static_cast<size_t>(w)] < 0) {
        dist[static_cast<size_t>(w)] = dist[static_cast<size_t>(u)] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

// hop_ends[h] counts the ball's leading entries within h hops, and the
// entries come by nondecreasing distance, each within `hops`.
void ExpectHopEndsMatchDistances(const GraphView& view,
                                 const std::vector<NodeId>& seeds, int hops,
                                 const std::vector<NodeId>& ball,
                                 const std::vector<size_t>& hop_ends) {
  const std::vector<int> dist = BruteForceDistances(view, seeds);
  ASSERT_EQ(hop_ends.size(), static_cast<size_t>(hops) + 1);
  EXPECT_EQ(hop_ends.back(), ball.size());
  for (size_t i = 0; i < ball.size(); ++i) {
    const int d = dist[static_cast<size_t>(ball[i])];
    ASSERT_GE(d, 0);
    ASSERT_LE(d, hops);
    if (i > 0) {
      EXPECT_LE(dist[static_cast<size_t>(ball[i - 1])], d);
    }
  }
  for (int h = 0; h <= hops; ++h) {
    const size_t within = static_cast<size_t>(
        std::count_if(ball.begin(), ball.end(), [&](NodeId u) {
          return dist[static_cast<size_t>(u)] <= h;
        }));
    EXPECT_EQ(hop_ends[static_cast<size_t>(h)], within) << "hop " << h;
  }
}

TEST(ReferenceForwardHops, SingleCenterBallsHoldExactlyTheNodesWithinReach) {
  const Graph g = testing::MakeSmallSbm();
  const FullView full(&g);
  const OverlayView overlay(&full, {g.Edges()[0], Edge(5, 99)});
  for (const GraphView* view : std::vector<const GraphView*>{&full, &overlay}) {
    for (NodeId v = 0; v < g.num_nodes(); v += 7) {
      for (int hops = 0; hops <= 3; ++hops) {
        std::vector<size_t> ends;
        const std::vector<NodeId> ball = KHopBall(*view, v, hops, &ends);
        EXPECT_EQ(ball, KHopBall(*view, v, hops));
        ExpectHopEndsMatchDistances(*view, {v}, hops, ball, ends);
        const std::vector<int> dist = BruteForceDistances(*view, {v});
        const size_t reachable = static_cast<size_t>(
            std::count_if(dist.begin(), dist.end(),
                          [&](int d) { return d >= 0 && d <= hops; }));
        EXPECT_EQ(ball.size(), reachable);
      }
    }
  }
}

TEST(ReferenceForwardHops, MultiSeedBallsWithDuplicateSeeds) {
  const Graph g = testing::MakeSmallSbm();
  const FullView full(&g);
  const std::vector<NodeId> seeds{40, 3, 40, 199, 3, 120};
  const std::vector<NodeId> distinct{40, 3, 199, 120};
  for (int hops = 0; hops <= 3; ++hops) {
    std::vector<size_t> ends;
    const std::vector<NodeId> ball = KHopBall(full, seeds, hops, 0, &ends);
    EXPECT_EQ(ball, KHopBall(full, seeds, hops));
    ASSERT_GE(ball.size(), distinct.size());
    EXPECT_TRUE(std::equal(distinct.begin(), distinct.end(), ball.begin()));
    EXPECT_EQ(ends[0], distinct.size());
    ExpectHopEndsMatchDistances(full, seeds, hops, ball, ends);
    const std::set<NodeId> members(ball.begin(), ball.end());
    EXPECT_EQ(members.size(), ball.size());  // no node listed twice
  }
}

TEST(ReferenceForwardHops, CappedBallsArePrefixesWithMatchingBoundaries) {
  const Graph g = testing::MakeSmallSbm();
  const FullView full(&g);
  const std::vector<NodeId> seeds{12, 12, 77};
  const int hops = 3;
  const std::vector<NodeId> uncapped = KHopBall(full, seeds, hops);
  for (int cap : {1, 2, 3, 10, 57, static_cast<int>(uncapped.size()) + 5}) {
    std::vector<size_t> ends;
    const std::vector<NodeId> ball = KHopBall(full, seeds, hops, cap, &ends);
    EXPECT_EQ(ball, KHopBall(full, seeds, hops, cap));
    // The cap never drops a seed, and otherwise cuts the uncapped order.
    const size_t want = std::min(uncapped.size(),
                                 std::max<size_t>(2, static_cast<size_t>(cap)));
    ASSERT_EQ(ball.size(), want) << "cap " << cap;
    EXPECT_TRUE(std::equal(ball.begin(), ball.end(), uncapped.begin()));
    ExpectHopEndsMatchDistances(full, seeds, hops, ball, ends);
  }
}

}  // namespace
}  // namespace robogexp
