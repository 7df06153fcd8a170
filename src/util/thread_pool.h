// Fixed-size worker pool used by paraRoboGExp's fragment workers and by the
// thread-parallel dense kernels in src/la.
#ifndef ROBOGEXP_UTIL_THREAD_POOL_H_
#define ROBOGEXP_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace robogexp {

/// A simple fixed-size thread pool with a Wait() barrier.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

  /// True when the calling thread is a worker of *any* ThreadPool in this
  /// process. Lets schedulers choose between queueing work (which may sit
  /// behind blocked workers) and running it inline on the current worker —
  /// e.g. the async batching front runs size-triggered flushes inline when
  /// the submitter is already a pool worker.
  static bool InWorkerThread();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  int active_ = 0;
  bool stop_ = false;
};

/// Runs fn(i) for i in [0, n) across `pool` (or inline when pool == nullptr
/// or n <= min_grain). Blocks until all iterations finish. Threads claim
/// `min_grain` consecutive indices per atomic step, so per-row kernels pass
/// a grain that amortizes the claim and coarse work items pass 1. The
/// calling thread participates in the work, so nested ParallelFor calls on
/// the same pool (e.g. a parallel verifier whose inference kernels are
/// themselves parallel) cannot deadlock even when every worker is busy.
void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& fn,
                 int64_t min_grain = 1);

/// Library-wide default pool, sized to the hardware concurrency.
ThreadPool* DefaultPool();

}  // namespace robogexp

#endif  // ROBOGEXP_UTIL_THREAD_POOL_H_
