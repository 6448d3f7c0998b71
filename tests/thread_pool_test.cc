// ThreadPool / parallel_for tests. These run under the `tsan` ctest label
// (ThreadSanitizer preset) as well as the default suite: they exercise the
// submit/wait protocol, dynamic scheduling, and the pre-sized-result
// pattern the parallel analysis relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/thread_pool.h"

namespace procheck {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { count.fetch_add(1); });
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(3);
  pool.wait();  // must not hang
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, DestructorDrainsOutstandingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // no explicit wait: the destructor must drain before joining
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, DefaultParallelismIsPositive) {
  EXPECT_GE(ThreadPool::default_parallelism(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(8, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, SequentialModeRunsInOrderOnCallingThread) {
  std::vector<std::size_t> order;
  parallel_for(1, 10, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // no pool, no reordering
}

TEST(ParallelFor, ResultsByIndexMatchSequential) {
  // The determinism pattern used by the analysis fan-out: workers write
  // disjoint slots of a pre-sized vector, so the output is order-free.
  std::vector<int> seq(100), par(100);
  parallel_for(1, seq.size(), [&](std::size_t i) { seq[i] = static_cast<int>(i * i); });
  parallel_for(7, par.size(), [&](std::size_t i) { par[i] = static_cast<int>(i * i); });
  EXPECT_EQ(seq, par);
}

TEST(ParallelFor, EmptyAndSingleCounts) {
  int runs = 0;
  parallel_for(4, 0, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
  parallel_for(4, 1, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 1);
}

}  // namespace
}  // namespace procheck
