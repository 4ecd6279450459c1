#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace semtag {
namespace {

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  std::mutex mu;
  std::condition_variable cv;
  int count = 0;
  ThreadPool pool(4);  // declared last: joined before the tasks' state dies
  EXPECT_EQ(pool.threads(), 4);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      if (++count == 100) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return count == 100; }));
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 0);  // no workers: Submit degrades to inline
  int count = 0;  // no atomic needed: everything runs on this thread
  pool.Submit([&count] { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&count] { count.fetch_add(1); });
    // nothing waits: the destructor must still run everything
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, ParallelForHandsWorkPastABlockedChunk) {
  // Index 0 blocks until every other index has been processed. With work
  // handed out from a cursor the other threads claim all remaining chunks,
  // so the latch opens; a static split would leave the indices that share
  // index 0's pre-assigned chunk waiting behind it, and the wait times out.
  SetGlobalPoolThreads(4);
  constexpr size_t kIndices = 16;
  std::mutex mu;
  std::condition_variable cv;
  size_t others_done = 0;
  bool latch_opened = false;
  ParallelFor(0, kIndices, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      if (i == 0) {
        latch_opened = cv.wait_for(lock, std::chrono::seconds(10), [&] {
          return others_done == kIndices - 1;
        });
      } else {
        ++others_done;
        cv.notify_all();
      }
    }
  });
  SetGlobalPoolThreads(DefaultThreadCount());
  EXPECT_TRUE(latch_opened);
  EXPECT_EQ(others_done, kIndices - 1);
}

class ParallelForTest : public ::testing::Test {
 protected:
  void SetUp() override { SetGlobalPoolThreads(4); }
  void TearDown() override { SetGlobalPoolThreads(DefaultThreadCount()); }
};

TEST_F(ParallelForTest, CoversRangeExactlyOnce) {
  std::vector<int> hits(1000, 0);
  ParallelFor(0, hits.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST_F(ParallelForTest, RespectsGrain) {
  // The grain is the chunk size: 10 indices at grain 4 -> [0,4), [4,8)
  // and the short [8,10).
  std::vector<std::pair<size_t, size_t>> chunks;
  std::mutex mu;
  ParallelFor(0, 10, 4, [&](size_t lo, size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  const std::vector<std::pair<size_t, size_t>> want = {{0, 4}, {4, 8},
                                                       {8, 10}};
  EXPECT_EQ(chunks, want);
}

TEST_F(ParallelForTest, PerThreadGrainGivesEachThreadOneBlock) {
  // 4 pool threads: one block per thread, rounded up to the alignment.
  EXPECT_EQ(PerThreadGrain(256, 2), 64u);
  EXPECT_EQ(PerThreadGrain(100, 1), 25u);
  EXPECT_EQ(PerThreadGrain(100, 2), 26u);  // 26+26+26+22, every block even
  EXPECT_EQ(PerThreadGrain(3, 2), 2u);
  EXPECT_EQ(PerThreadGrain(0, 2), 2u);
  SetGlobalPoolThreads(1);  // no workers: the whole range is one block
  EXPECT_EQ(PerThreadGrain(100, 1), 100u);
}

TEST_F(ParallelForTest, EmptyRangeDoesNothing) {
  bool called = false;
  ParallelFor(5, 5, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_F(ParallelForTest, NestedCallsRunInlineOnWorkers) {
  // An inner ParallelFor issued from inside a chunk, on a pool worker or
  // on the caller, must not deadlock; it degrades to one inline call
  // covering the whole inner range.
  std::atomic<int> inner_total{0};
  std::atomic<int> inner_calls{0};
  ParallelFor(0, 8, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      ParallelFor(0, 16, 1, [&](size_t ilo, size_t ihi) {
        inner_calls.fetch_add(1);
        inner_total.fetch_add(static_cast<int>(ihi - ilo));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
  EXPECT_EQ(inner_calls.load(), 8);
}

TEST_F(ParallelForTest, PropagatesExceptionFromWorkerChunk) {
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [](size_t lo, size_t) {
                    if (lo != 0) throw std::runtime_error("chunk failed");
                  }),
      std::runtime_error);
}

TEST_F(ParallelForTest, PropagatesExceptionFromInlineChunk) {
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [](size_t lo, size_t) {
                    if (lo == 0) throw std::runtime_error("chunk failed");
                  }),
      std::runtime_error);
}

TEST(DefaultThreadCountTest, IsPositive) {
  EXPECT_GE(DefaultThreadCount(), 1);
}

}  // namespace
}  // namespace semtag
