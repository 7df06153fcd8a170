// Substrate microbenchmarks (google-benchmark): dense/sparse kernels, PPR,
// localized GNN inference, overlay views, partitioning, bitmaps.
#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "src/graph/partition.h"
#include "src/la/sparse.h"
#include "src/ppr/ppr.h"
#include "src/ppr/pri.h"

namespace robogexp::bench {
namespace {

const Workload& CachedCiteSeer() {
  static const Workload* w =
      new Workload(PrepareWorkload("CiteSeer", 0.3, false));
  return *w;
}

void BM_MatrixMultiply(benchmark::State& state) {
  Rng rng(1);
  const int64_t n = state.range(0);
  const Matrix a = Matrix::Xavier(n, n, &rng);
  const Matrix b = Matrix::Xavier(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matrix::Multiply(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatrixMultiply)->Arg(64)->Arg(128)->Arg(256);

void BM_SparseMultiply(benchmark::State& state) {
  Rng rng(2);
  const int64_t n = 4000;
  std::vector<SparseMatrix::Triplet> trips;
  for (int64_t i = 0; i < n; ++i) {
    for (int rep = 0; rep < 6; ++rep) {
      trips.push_back(
          {i, static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n))),
           rng.Uniform()});
    }
  }
  const auto s = SparseMatrix::Build(n, n, trips);
  const Matrix x = Matrix::Xavier(n, state.range(0), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.Multiply(x));
  }
}
BENCHMARK(BM_SparseMultiply)->Arg(16)->Arg(64);

void BM_PprPush(benchmark::State& state) {
  const Workload& w = CachedCiteSeer();
  const FullView full(w.graph.get());
  PprOptions opts;
  opts.epsilon = 1e-7;
  NodeId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PprPush(full, v, opts));
    v = (v + 17) % w.graph->num_nodes();
  }
}
BENCHMARK(BM_PprPush);

void BM_PprSolveBall(benchmark::State& state) {
  const Workload& w = CachedCiteSeer();
  const FullView full(w.graph.get());
  const auto ball = CappedBall(full, NodeId{0}, 3, 20000);
  std::vector<double> r(ball.size(), 0.0);
  r[0] = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SolveIMinusAlphaP(LocalSubgraph(full, ball), r, {}));
  }
  state.counters["ball_nodes"] = static_cast<double>(ball.size());
}
BENCHMARK(BM_PprSolveBall);

void BM_GcnLocalizedInferNode(benchmark::State& state) {
  const Workload& w = CachedCiteSeer();
  const FullView full(w.graph.get());
  NodeId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.model->InferNode(full, w.graph->features(), v));
    v = (v + 31) % w.graph->num_nodes();
  }
}
BENCHMARK(BM_GcnLocalizedInferNode);

void BM_GcnFullInference(benchmark::State& state) {
  const Workload& w = CachedCiteSeer();
  const FullView full(w.graph.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.model->Infer(full, w.graph->features()));
  }
}
BENCHMARK(BM_GcnFullInference);

void BM_OverlayViewConstruction(benchmark::State& state) {
  const Workload& w = CachedCiteSeer();
  const FullView full(w.graph.get());
  const auto edges = w.graph->Edges();
  std::vector<Edge> flips(edges.begin(),
                          edges.begin() + std::min<size_t>(64, edges.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(OverlayView(&full, flips));
  }
}
BENCHMARK(BM_OverlayViewConstruction);

void BM_Pri(benchmark::State& state) {
  const Workload& w = CachedCiteSeer();
  const FullView full(w.graph.get());
  const Matrix base = w.model->BaseLogits(full, w.graph->features());
  const std::vector<NodeId> ball = CappedBall(full, NodeId{5}, 3, 20000);
  std::vector<double> r(ball.size());
  for (size_t i = 0; i < ball.size(); ++i) {
    r[i] = base.at(ball[i], 1) - base.at(ball[i], 0);
  }
  PriOptions opts;
  opts.k = static_cast<int>(state.range(0));
  opts.local_budget = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Pri(full, {}, ball, r, opts));
  }
}
BENCHMARK(BM_Pri)->Arg(4)->Arg(20);

void BM_EdgeCutPartition(benchmark::State& state) {
  const Workload& w = CachedCiteSeer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EdgeCutPartition(*w.graph, static_cast<int>(state.range(0)), 3));
  }
}
BENCHMARK(BM_EdgeCutPartition)->Arg(4)->Arg(16);

void BM_BitmapUnion(benchmark::State& state) {
  Bitmap a(1 << 20), b(1 << 20);
  for (size_t i = 0; i < (1 << 20); i += 7) b.Set(i);
  for (auto _ : state) {
    a.UnionWith(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_BitmapUnion);

}  // namespace
}  // namespace robogexp::bench

BENCHMARK_MAIN();
