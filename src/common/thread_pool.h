#pragma once

/// \file thread_pool.h
/// Fixed-size worker pool used by the state-effect executor and the script
/// host to run query and apply phases in parallel (the tutorial's GPU-join
/// analogy, realized on CPU threads — see docs/ARCHITECTURE.md "Simulated
/// substitutions").

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/macros.h"

namespace gamedb {

/// A fork-join pool: each ParallelFor call queues its chunks as one batch
/// and returns when that batch is done. Chunks must not throw.
///
/// Completion is tracked per batch, so overlapping ParallelFor calls issued
/// from different threads wait only on their own chunks, and a chunk may
/// itself call ParallelFor: the waiting thread "helps" by running its own
/// batch's queued chunks instead of blocking while they sit in the queue.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  GAMEDB_DISALLOW_COPY(ThreadPool);

  /// Partitions [0, n) into roughly equal chunks and runs
  /// `fn(begin, end)` for each chunk on the pool, blocking until done.
  /// Runs inline when n is small or the pool has one thread.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn);

  /// Like ParallelFor but also passes the chunk index (< num_threads()),
  /// which callers use as a shard id for contention-free accumulation.
  /// Chunking is deterministic for a given (n, num_threads()): chunk i
  /// always covers the same contiguous range, so concatenating per-chunk
  /// results in chunk order yields a thread-count-independent item order.
  void ParallelForChunks(
      size_t n, const std::function<void(size_t, size_t, size_t)>& fn);

  size_t num_threads() const { return threads_.size(); }

 private:
  /// One ForkJoin call: its chunk function and the chunks still to finish.
  /// Lives on the caller's stack until its last chunk is done.
  struct Batch {
    const std::function<void(size_t, size_t, size_t)>* fn = nullptr;
    size_t pending = 0;  // guarded by mu_
    std::condition_variable done_cv;
  };
  /// One chunk: (*batch->fn)(index, begin, end).
  struct Task {
    Batch* batch;
    size_t index, begin, end;
  };

  /// Queues `fn(index, begin, end)` for each `chunk`-sized piece of [0, n)
  /// as one batch and returns when every piece has run.
  void ForkJoin(size_t n, size_t chunk,
                const std::function<void(size_t, size_t, size_t)>& fn);

  void WorkerLoop();

  /// Runs a dequeued task with `lock` released, then counts it done.
  /// Precondition: lock held.
  void RunTask(Task task, std::unique_lock<std::mutex>& lock);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Task> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace gamedb
