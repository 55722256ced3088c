#include "common/thread_pool.h"

#include <algorithm>

namespace gamedb {

ThreadPool::ThreadPool(size_t num_threads) {
  GAMEDB_CHECK(num_threads >= 1);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::RunTask(Task task, std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  (*task.batch->fn)(task.index, task.begin, task.end);
  lock.lock();
  if (--task.batch->pending == 0) task.batch->done_cv.notify_all();
}

void ThreadPool::ForkJoin(
    size_t n, size_t chunk,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  Batch batch;
  batch.fn = &fn;
  std::unique_lock<std::mutex> lock(mu_);
  GAMEDB_CHECK(!shutdown_);
  size_t index = 0;
  for (size_t begin = 0; begin < n; begin += chunk, ++index) {
    queue_.push_back(Task{&batch, index, begin, std::min(begin + chunk, n)});
    ++batch.pending;
  }
  work_cv_.notify_all();
  while (batch.pending > 0) {
    // Help only with THIS batch's queued chunks. Running arbitrary queued
    // work here could trap the caller inside an unrelated long (or
    // blocked) chunk of another batch.
    auto it = std::find_if(queue_.begin(), queue_.end(), [&](const Task& t) {
      return t.batch == &batch;
    });
    if (it == queue_.end()) {
      // The rest are running on other threads; the last one notifies.
      batch.done_cv.wait(lock);
      continue;
    }
    Task task = *it;
    queue_.erase(it);
    RunTask(task, lock);
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  size_t workers = threads_.size();
  if (workers == 1 || n < 2 * workers) {
    fn(0, n);
    return;
  }
  ForkJoin(n, (n + workers - 1) / workers,
           [&fn](size_t, size_t begin, size_t end) { fn(begin, end); });
}

void ThreadPool::ParallelForChunks(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  size_t workers = threads_.size();
  if (workers == 1) {
    fn(0, 0, n);
    return;
  }
  ForkJoin(n, (n + workers - 1) / workers, fn);
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutdown with nothing left to run
    Task task = queue_.front();
    queue_.pop_front();
    RunTask(task, lock);
  }
}

}  // namespace gamedb
