#include "common/thread_pool.h"

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

// A ParallelFor job lives on the caller's stack frame, so a worker that
// touches it after ParallelFor returned is a stack-use-after-return, which
// ASan reports only with this option. Ignored by non-ASan builds; an
// ASAN_OPTIONS environment variable still takes precedence.
extern "C" const char* __asan_default_options() {
  return "detect_stack_use_after_return=1";
}

namespace rasa {
namespace {

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(-3);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 997;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWithZeroOrNegativeCountIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](int) { calls.fetch_add(1); });
  pool.ParallelFor(-5, [&](int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

// Every index runs, even after one threw; then the first exception is
// rethrown.
TEST(ThreadPoolTest, ParallelForRethrowsTaskException) {
  ThreadPool pool(3);
  constexpr int kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  EXPECT_THROW(pool.ParallelFor(kN,
                                [&](int i) {
                                  hits[i].fetch_add(1);
                                  if (i == 13) {
                                    throw std::runtime_error("task 13");
                                  }
                                }),
               std::runtime_error);
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// A ParallelFor issued from inside a running task runs inline on that
// thread, so nesting never waits on a pool whose threads are all busy with
// the outer job.
TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](int) {
    pool.ParallelFor(8, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, StressManySmallTasks) {
  ThreadPool pool(4);
  constexpr int kTasks = 20000;
  std::atomic<long> sum{0};
  pool.ParallelFor(kTasks, [&sum](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), static_cast<long>(kTasks) * (kTasks - 1) / 2);
}

// Back-to-back small jobs: a worker that wakes after its job returned must
// neither touch that job (it lived on the caller's stack) nor run an index
// of it twice. Under ASan a late touch is a stack-use-after-return.
TEST(ThreadPoolTest, BackToBackSmallJobsRunEachIndexOnce) {
  ThreadPool pool(4);
  constexpr int kCalls = 5000;
  for (int call = 0; call < kCalls; ++call) {
    const int n = 2 + call % 7;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(n, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "call " << call << " index " << i;
    }
  }
}

// Two external threads share one pool: their jobs take turns, and each
// index of each call runs exactly once.
TEST(ThreadPoolTest, ConcurrentExternalCallersTakeTurns) {
  ThreadPool pool(3);
  constexpr int kCalls = 500;
  constexpr int kN = 16;
  auto caller = [&pool](std::atomic<int>* failures) {
    for (int call = 0; call < kCalls; ++call) {
      std::vector<std::atomic<int>> hits(kN);
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(kN, [&](int i) { hits[i].fetch_add(1); });
      for (auto& h : hits) {
        if (h.load() != 1) failures->fetch_add(1);
      }
    }
  };
  std::atomic<int> failures{0};
  std::thread a(caller, &failures);
  std::thread b(caller, &failures);
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace rasa
