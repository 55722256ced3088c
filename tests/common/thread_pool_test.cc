#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

namespace gamedb {
namespace {

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(hits.size(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForSmallRunsInline) {
  ThreadPool pool(4);
  std::vector<int> hits(3, 0);  // not atomic: must be single-threaded
  pool.ParallelFor(hits.size(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

TEST(ThreadPoolTest, ParallelForChunksShardIdsAreDisjointAndBounded) {
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> owner(n);
  for (auto& o : owner) o.store(-1);
  pool.ParallelForChunks(n, [&](size_t chunk, size_t b, size_t e) {
    ASSERT_LT(chunk, pool.num_threads());
    for (size_t i = b; i < e; ++i) {
      int expected = -1;
      ASSERT_TRUE(owner[i].compare_exchange_strong(
          expected, static_cast<int>(chunk)));
    }
  });
  for (auto& o : owner) ASSERT_NE(o.load(), -1);
}

TEST(ThreadPoolTest, ChunkingIsDeterministic) {
  std::vector<std::pair<size_t, size_t>> first, second;
  for (int round = 0; round < 2; ++round) {
    ThreadPool pool(3);
    std::mutex mu;
    auto& out = round == 0 ? first : second;
    pool.ParallelForChunks(100, [&](size_t, size_t b, size_t e) {
      std::lock_guard<std::mutex> lock(mu);
      out.emplace_back(b, e);
    });
    std::sort(out.begin(), out.end());
  }
  EXPECT_EQ(first, second);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.ParallelFor(50, [&](size_t b, size_t e) {
    counter.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(counter.load(), 50);
}

// Regression: a ParallelFor must return while an unrelated batch, waited
// on by another thread, is still blocked. With one pool-wide completion
// counter it hung here until the slow batch's chunks were released.
TEST(ThreadPoolTest, GroupWaitIgnoresUnrelatedInFlightBatch) {
  ThreadPool pool(4);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> slow_running{0};
  std::thread slow([&] {
    // 4 chunks of 2, each blocked on the gate.
    pool.ParallelFor(8, [&](size_t, size_t) {
      slow_running.fetch_add(1);
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait(lock, [&] { return gate_open; });
    });
  });
  while (slow_running.load() < 4) std::this_thread::yield();

  std::atomic<int> fast_done{0};
  pool.ParallelFor(256, [&](size_t b, size_t e) {
    fast_done.fetch_add(static_cast<int>(e - b));
  });  // must return even though `slow` is still blocked
  EXPECT_EQ(fast_done.load(), 256);

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  slow.join();
}

// Regression: concurrent ParallelFor calls from different external threads
// each wait on their own batch only; with one pool-wide completion counter
// they blocked on each other's tasks.
TEST(ThreadPoolTest, ConcurrentParallelForBatchesDoNotCrossBlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        pool.ParallelFor(256, [&](size_t b, size_t e) {
          total.fetch_add(static_cast<int>(e - b));
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 4 * 50 * 256);
}

// A chunk may itself call ParallelForChunks: each waiting thread runs its
// own batch's queued chunks, so nesting cannot deadlock the pool.
TEST(ThreadPoolTest, NestedParallelForFromTask) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  pool.ParallelForChunks(4, [&](size_t, size_t b, size_t e) {
    for (size_t part = b; part < e; ++part) {
      pool.ParallelForChunks(100, [&](size_t, size_t b2, size_t e2) {
        sum.fetch_add(static_cast<int>(e2 - b2));
      });
    }
  });
  EXPECT_EQ(sum.load(), 400);
}

}  // namespace
}  // namespace gamedb
