#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
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

/// A gate iterations block on until the test opens it, counting how
/// many are blocked.
class Gate {
 public:
  void Block() {
    std::unique_lock<std::mutex> lock(mu_);
    ++blocked_;
    changed_.notify_all();
    changed_.wait(lock, [this] { return open_; });
  }
  void AwaitBlocked(int count) {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [&] { return blocked_ >= count; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    changed_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable changed_;
  int blocked_ = 0;
  bool open_ = false;
};

TEST(ThreadPoolTest, ComputingCallerPoolCoversEveryIndexOnce) {
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads, ThreadPool::Caller::kComputes);
    EXPECT_EQ(pool.num_threads(), threads);
    constexpr int64_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(kN, [&hits](int64_t i) { hits[i].fetch_add(1); });
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ConcurrentCallersEachRunTheirIndicesOnce) {
  // Several threads call ParallelFor on one pool at once, as served runs
  // do on QueryService's helper pool: each call has its own cursor.
  for (const ThreadPool::Caller caller :
       {ThreadPool::Caller::kWaits, ThreadPool::Caller::kComputes}) {
    ThreadPool pool(3, caller);
    constexpr int kCallers = 4;
    constexpr int kRounds = 20;
    constexpr int64_t kN = 257;
    std::vector<std::vector<std::atomic<int>>> hits(kCallers);
    for (auto& row : hits) {
      row = std::vector<std::atomic<int>>(kN);
      for (auto& h : row) h.store(0);
    }
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&pool, &hits, c] {
        for (int round = 0; round < kRounds; ++round) {
          pool.ParallelFor(kN, [&hits, c](int64_t i) { hits[c][i]++; });
        }
      });
    }
    for (std::thread& t : callers) t.join();
    for (int c = 0; c < kCallers; ++c) {
      for (int64_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[c][i].load(), kRounds) << "caller " << c << " index "
                                               << i;
      }
    }
  }
}

TEST(ThreadPoolTest, CallReturnsWhileAnotherCallersIterationsBlock) {
  // A call waits for its own iterations only: the second caller returns
  // while the first caller's iterations hold two of the four workers.
  ThreadPool pool(4);
  Gate gate;
  std::thread blocked([&pool, &gate] {
    pool.ParallelFor(2, [&gate](int64_t) { gate.Block(); });
  });
  gate.AwaitBlocked(2);
  std::atomic<int> ran{0};
  pool.ParallelFor(100, [&ran](int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 100);
  gate.Open();
  blocked.join();
}

TEST(ThreadPoolTest, ComputingCallerCompletesWhileAnotherHoldsEveryHelper) {
  // The first caller's iterations hold its own thread and both helpers;
  // the second caller drains its whole call on its own thread.
  ThreadPool pool(3, ThreadPool::Caller::kComputes);
  Gate gate;
  std::thread holder([&pool, &gate] {
    pool.ParallelFor(3, [&gate](int64_t) { gate.Block(); });
  });
  gate.AwaitBlocked(3);
  const std::thread::id self = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  pool.ParallelFor(50, [&on_caller, self](int64_t) {
    if (std::this_thread::get_id() == self) on_caller.fetch_add(1);
  });
  EXPECT_EQ(on_caller.load(), 50);
  gate.Open();
  holder.join();
}

TEST(ThreadPoolTest, ThrowingIterationReachesItsOwnCallerOnly) {
  for (const ThreadPool::Caller caller :
       {ThreadPool::Caller::kWaits, ThreadPool::Caller::kComputes}) {
    ThreadPool pool(3, caller);
    Status thrower_error;
    Status clean_error;
    std::atomic<int> clean_ran{0};
    std::thread thrower([&] {
      pool.ParallelFor(200, [](int64_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        if (i == 40) throw std::runtime_error("thrower failed");
      });
      thrower_error = pool.TakeFirstError();
    });
    std::thread clean([&] {
      pool.ParallelFor(200, [&clean_ran](int64_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        clean_ran.fetch_add(1);
      });
      clean_error = pool.TakeFirstError();
    });
    thrower.join();
    clean.join();
    EXPECT_EQ(thrower_error.code(), StatusCode::kInternal);
    EXPECT_NE(thrower_error.message().find("thrower failed"),
              std::string::npos);
    EXPECT_TRUE(clean_error.ok()) << clean_error;
    EXPECT_EQ(clean_ran.load(), 200);
    EXPECT_TRUE(pool.TakeFirstError().ok());  // this thread called nothing
  }
}

TEST(ThreadPoolTest, InOrderHandsIndicesOverOnTheCallerInOrder) {
  for (const ThreadPool::Caller caller :
       {ThreadPool::Caller::kWaits, ThreadPool::Caller::kComputes}) {
    for (int threads : {1, 4}) {
      ThreadPool pool(threads, caller);
      constexpr int64_t kN = 64;
      const std::thread::id self = std::this_thread::get_id();
      std::vector<int64_t> handed;
      bool all_on_caller = true;
      pool.ParallelFor(
          kN,
          [](int64_t i) {
            // Later indices finish first.
            std::this_thread::sleep_for(std::chrono::microseconds(
                (kN - i) % 7 * 100));
          },
          [&](int64_t i) {
            all_on_caller &= std::this_thread::get_id() == self;
            handed.push_back(i);
          });
      ASSERT_EQ(handed.size(), static_cast<size_t>(kN));
      for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(handed[i], i);
      EXPECT_TRUE(all_on_caller);

      // A throwing iteration stops the hand-over before its index.
      handed.clear();
      pool.ParallelFor(
          kN,
          [](int64_t i) {
            if (i == 10) throw std::runtime_error("range failed");
          },
          [&handed](int64_t i) { handed.push_back(i); });
      EXPECT_EQ(pool.TakeFirstError().code(), StatusCode::kInternal);
      ASSERT_LE(handed.size(), 10u);
      for (size_t i = 0; i < handed.size(); ++i) {
        EXPECT_EQ(handed[i], static_cast<int64_t>(i));
      }
    }
  }
}

TEST(ThreadPoolTest, LateTasksTouchNothingOfAReturnedCall) {
  // A computing caller often drains a short call before a helper
  // dequeues its task; the task must then find the cursor spent and
  // never read the body, which lives on the caller's stack (ASan and
  // TSan runs of this suite catch a stale read).
  ThreadPool pool(4, ThreadPool::Caller::kComputes);
  int64_t total = 0;
  for (int round = 0; round < 500; ++round) {
    std::atomic<int64_t> sum{0};
    const std::function<void(int64_t)> body = [&sum](int64_t i) {
      sum.fetch_add(i + 1);
    };
    pool.ParallelFor(3, body);
    total += sum.load();
  }
  EXPECT_EQ(total, 500 * 6);
  pool.Wait();
}

TEST(ThreadPoolTest, NonExceptionThrowIsRecorded) {
  ThreadPool pool(1);
  pool.Submit([] { throw 42; });  // not derived from std::exception
  pool.Wait();
  EXPECT_EQ(pool.TakeFirstError().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace flowmotif
