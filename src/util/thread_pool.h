#ifndef FLOWMOTIF_UTIL_THREAD_POOL_H_
#define FLOWMOTIF_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace flowmotif {

/// A fixed-size worker pool. The engine's parallel phases — the pooled
/// P1 scan, the P2 batches and significance's ensemble waves — each run
/// as one ParallelFor; QueryService's workers are Submit tasks that
/// submit the next admitted request. The codebase reports errors
/// through Status, but a task that does throw is caught at the task
/// boundary instead of terminating the process: the first exception is
/// recorded as an Internal Status (readable via TakeFirstError()),
/// later tasks still run, and the pool stays serviceable for subsequent
/// queries.
///
/// With num_threads == 1 no worker threads are spawned at all and every
/// task runs inline on the submitting thread, so the serial path has
/// zero synchronization overhead and stays the bit-for-bit reference
/// for the parallel one.
class ThreadPool {
 public:
  /// `num_threads` >= 1 is the total parallelism (worker threads; the
  /// caller blocks in Wait()/ParallelFor() and does not steal work so
  /// that the thread count the user asked for is the thread count
  /// actually computing).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Enqueues one task. Thread-safe.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Runs body(i) for every i in [0, n), distributing indices to workers
  /// through a shared cursor (dynamic load balancing), and blocks until
  /// all iterations are done. With num_threads == 1 this is a plain
  /// loop. If an iteration throws, the remaining indices are skipped
  /// (the cursor is driven to n) and the error lands in
  /// TakeFirstError(). Concurrent ParallelFor calls on the same pool
  /// are not supported (Wait() would observe each other's tasks).
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& body);

  /// Returns the first error caught at a task boundary since the last
  /// call and clears it (OK when no task failed). The submitting query
  /// calls this after Wait() to surface worker failures through its own
  /// Status instead of crashing the process.
  Status TakeFirstError();

  /// std::thread::hardware_concurrency() with a floor of 1; the meaning
  /// of `num_threads = 0` in engine options.
  static int DefaultParallelism();

 private:
  void WorkerLoop();

  /// Runs `task` with the catch-at-boundary contract.
  void RunTask(const std::function<void()>& task);

  /// Records `message` as the first error if none is set. Thread-safe.
  void RecordError(const std::string& message);

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  int64_t in_flight_ = 0;  // queued + currently running tasks
  bool shutdown_ = false;

  std::mutex error_mu_;
  Status first_error_;  // first task-boundary error since TakeFirstError
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_UTIL_THREAD_POOL_H_
