#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/status.h"

namespace flowmotif {
namespace {

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, TasksMaySubmitTasksBeforeWait) {
  // QueryService's workers submit the next admitted request from inside
  // a running task; Wait() must cover those too (the chained Submit
  // raises in_flight before its parent task retires).
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&ran, &pool] {
      ran.fetch_add(1);
      for (int j = 0; j < 4; ++j) {
        pool.Submit([&ran] { ran.fetch_add(1); });
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 16 * 5);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id observed;
  pool.Submit([&observed] { observed = std::this_thread::get_id(); });
  // Inline mode: the task already ran on the submitting thread.
  EXPECT_EQ(observed, caller);
  pool.Wait();
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    constexpr int64_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(kN, [&hits](int64_t i) { hits[i].fetch_add(1); });
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingle) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&calls](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on the caller, so a plain int is safe.
  pool.ParallelFor(1, [&calls](int64_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ReusableAcrossRounds) {
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(10, [&sum](int64_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 5 * 45);
}

TEST(ThreadPoolTest, DefaultParallelismIsPositive) {
  EXPECT_GE(ThreadPool::DefaultParallelism(), 1);
}

TEST(ThreadPoolTest, TaskExceptionIsCaughtAndSurfacedOnce) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    pool.Submit([] { throw std::runtime_error("first failure"); });
    pool.Submit([&ran] { ran.fetch_add(1); });
    pool.Submit([] { throw std::logic_error("second failure"); });
    pool.Wait();
    // Later tasks still ran: the throw is contained at the task boundary.
    EXPECT_EQ(ran.load(), 1) << "threads " << threads;

    const Status err = pool.TakeFirstError();
    EXPECT_EQ(err.code(), StatusCode::kInternal) << "threads " << threads;
    EXPECT_NE(err.message().find("failure"), std::string::npos);
    // Take clears: a second read is OK.
    EXPECT_TRUE(pool.TakeFirstError().ok());

    // The pool stays serviceable for a clean follow-up round.
    pool.Submit([&ran] { ran.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(ran.load(), 2);
    EXPECT_TRUE(pool.TakeFirstError().ok());
  }
}

TEST(ThreadPoolTest, ParallelForDrainsAfterThrow) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    // The throwing iteration drives the cursor to n, so ParallelFor
    // returns without running every index — but it must return, and the
    // error must land in TakeFirstError().
    pool.ParallelFor(1000, [&ran](int64_t i) {
      if (i == 3) throw std::runtime_error("iteration failed");
      ran.fetch_add(1);
    });
    EXPECT_EQ(pool.TakeFirstError().code(), StatusCode::kInternal)
        << "threads " << threads;
    EXPECT_LT(ran.load(), 1000);

    // Serviceable afterwards: a clean ParallelFor covers everything.
    std::atomic<int> clean{0};
    pool.ParallelFor(100, [&clean](int64_t) { clean.fetch_add(1); });
    EXPECT_EQ(clean.load(), 100);
    EXPECT_TRUE(pool.TakeFirstError().ok());
  }
}

TEST(ThreadPoolTest, NonExceptionThrowIsRecorded) {
  ThreadPool pool(1);
  pool.Submit([] { throw 42; });  // not derived from std::exception
  pool.Wait();
  EXPECT_EQ(pool.TakeFirstError().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace flowmotif
