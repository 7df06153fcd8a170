#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace robogexp {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

namespace {
thread_local bool t_in_pool_worker = false;
}  // namespace

bool ThreadPool::InWorkerThread() { return t_in_pool_worker; }

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_done_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& fn, int64_t min_grain) {
  if (n <= 0) return;
  if (pool == nullptr || n <= min_grain || pool->num_threads() <= 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Threads claim `min_grain` consecutive indices per atomic step, count
  // completion per index (not per shard task), and the calling thread drains
  // claims itself. This makes nesting safe: when every pool worker is blocked
  // inside an outer ParallelFor, each inner call still finishes because its
  // caller performs all the work, and queued helper shards later wake up,
  // find no indices left, and exit. State is shared-owned so a helper shard
  // that runs after the caller has returned touches no dangling stack frame.
  struct State {
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    int64_t n;
    int64_t grain;
    std::function<void(int64_t)> fn;
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();
  state->n = n;
  state->grain = std::max<int64_t>(1, min_grain);
  state->fn = fn;
  auto drain = [](const std::shared_ptr<State>& s) {
    for (;;) {
      const int64_t begin = s->next.fetch_add(s->grain);
      if (begin >= s->n) break;
      const int64_t end = std::min(s->n, begin + s->grain);
      for (int64_t i = begin; i < end; ++i) s->fn(i);
      if (s->done.fetch_add(end - begin) + (end - begin) == s->n) {
        std::unique_lock<std::mutex> lock(s->mu);
        s->cv.notify_all();
      }
    }
  };
  const int num_helpers = static_cast<int>(std::min<int64_t>(
      pool->num_threads(), (n + state->grain - 1) / state->grain));
  for (int s = 0; s < num_helpers; ++s) {
    pool->Submit([state, drain] { drain(state); });
  }
  drain(state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done.load() == n; });
}

ThreadPool* DefaultPool() {
  static ThreadPool* pool = new ThreadPool(
      std::max(2u, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace robogexp
