#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>

namespace robogexp {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count(0);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count(0);
  pool.Submit([&] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  // Claims take min_grain indices at a time; sweep the chunk boundaries.
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    for (int64_t grain : {1, 16, 64}) {
      for (int64_t n : {int64_t{1}, grain - 1, grain, grain + 1, int64_t{1000},
                        int64_t{4099}}) {
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
        ParallelFor(&pool, n,
                    [&](int64_t i) { hits[static_cast<size_t>(i)]++; }, grain);
        for (size_t i = 0; i < hits.size(); ++i) {
          ASSERT_EQ(hits[i].load(), 1) << "threads " << threads << " grain "
                                       << grain << " n " << n << " index " << i;
        }
      }
    }
  }
}

TEST(ParallelFor, MatchesSerialSum) {
  ThreadPool pool(8);
  std::vector<int64_t> out(5000);
  ParallelFor(&pool, 5000,
              [&](int64_t i) { out[static_cast<size_t>(i)] = i * i; });
  int64_t sum = std::accumulate(out.begin(), out.end(), int64_t{0});
  int64_t expect = 0;
  for (int64_t i = 0; i < 5000; ++i) expect += i * i;
  EXPECT_EQ(sum, expect);
}

TEST(ParallelFor, NullPoolRunsInline) {
  std::vector<int> hits(10, 0);
  ParallelFor(nullptr, 10,
              [&](int64_t i) { hits[static_cast<size_t>(i)] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, ZeroAndNegativeAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 0, [&](int64_t) { ++calls; });
  ParallelFor(&pool, -5, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, RepeatedInvocationsAreStable) {
  // Regression: completion signaling must not race with waiter teardown.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> c(0);
    ParallelFor(&pool, 64, [&](int64_t) { c.fetch_add(1); });
    ASSERT_EQ(c.load(), 64);
  }
}

TEST(ParallelFor, NestedOnTheSamePoolDoesNotDeadlock) {
  // Regression: the parallel RCW verifier fans out units whose inference
  // kernels themselves ParallelFor on the same pool. With shard-counted
  // completion this deadlocked when every worker was blocked in an outer
  // iteration; iteration-counted completion with caller participation must
  // finish regardless of pool occupancy.
  ThreadPool pool(2);  // small pool: all workers occupied by the outer loop
  std::atomic<int> inner_total(0);
  ParallelFor(&pool, 8, [&](int64_t) {
    ParallelFor(&pool, 16, [&](int64_t) { inner_total.fetch_add(1); },
                /*min_grain=*/1);
  }, /*min_grain=*/1);
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ParallelFor, CallerParticipatesWhenPoolIsBusy) {
  // Even with every worker parked on a long task, ParallelFor must complete
  // (the calling thread drains the iterations itself).
  ThreadPool pool(2);
  std::mutex block;
  block.lock();
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> hold(block);  // parked until unlock
    });
  }
  std::atomic<int> c(0);
  ParallelFor(&pool, 32, [&](int64_t) { c.fetch_add(1); }, /*min_grain=*/1);
  EXPECT_EQ(c.load(), 32);
  block.unlock();
  pool.Wait();
}

TEST(ThreadPool, InWorkerThreadDistinguishesWorkersFromCallers) {
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  ThreadPool pool(2);
  std::atomic<int> in_worker(0);
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] {
      if (ThreadPool::InWorkerThread()) in_worker.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(in_worker.load(), 4);
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

TEST(DefaultPool, SingletonIsUsable) {
  std::atomic<int> c(0);
  ParallelFor(DefaultPool(), 32, [&](int64_t) { c.fetch_add(1); });
  EXPECT_EQ(c.load(), 32);
  EXPECT_GE(DefaultPool()->num_threads(), 2);
}

}  // namespace
}  // namespace robogexp
