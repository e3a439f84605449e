#ifndef FLOWMOTIF_UTIL_THREAD_POOL_H_
#define FLOWMOTIF_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace flowmotif {

/// A fixed-size worker pool. The engine's parallel phases — the pooled
/// P1 scan, the P2 batches, the pooled skeleton recording and
/// significance's ensemble waves — each run as one ParallelFor;
/// QueryService's request workers are Submit tasks that submit the next
/// admitted request.
///
/// Several threads may call ParallelFor on one pool at once. Each call
/// has its own index cursor and waits for its own iterations only, never
/// for other work on the pool; a worker that dequeues a task of a call
/// that already returned finds the cursor spent and touches nothing of
/// that call (not its body, not the caller's stack). No task may wait
/// for work queued behind it on the same pool: a run's request worker
/// and the helpers its calls borrow belong to different pools.
///
/// Which threads compute one call is fixed at construction:
///  * Caller::kWaits (a run's own pool, the default): the pool's
///    `num_threads` workers, while the caller blocks. With num_threads
///    == 1 no worker thread is spawned and the caller runs every
///    iteration inline, so the serial path has no synchronization and
///    stays the bit-for-bit reference for the parallel one.
///  * Caller::kComputes (QueryService's helper pool): the caller drains
///    its own cursor beside num_threads - 1 helper threads that every
///    caller shares, so a call always progresses on its own thread and
///    picks up whichever helpers no other call holds.
/// Either way one call computes on at most num_threads() threads.
///
/// The codebase reports errors through Status, but a task or iteration
/// that does throw is caught at the task boundary instead of terminating
/// the process: the first exception becomes an Internal Status for the
/// thread that called ParallelFor or Submit (TakeFirstError), the rest
/// of that call's indices are skipped, and the pool stays serviceable.
/// One caller never sees another caller's error.
class ThreadPool {
 public:
  enum class Caller { kWaits, kComputes };

  /// `num_threads` >= 1 is the most threads one call computes on; see
  /// Caller for which threads those are.
  explicit ThreadPool(int num_threads, Caller caller = Caller::kWaits);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Enqueues one task (inline without worker threads). Thread-safe.
  void Submit(std::function<void()> task);

  /// Blocks until every task on the pool has finished, whoever queued
  /// it. For Submit users; a ParallelFor call needs no Wait.
  void Wait();

  /// Runs body(i) for every i in [0, n), handing indices to the
  /// computing threads through the call's own cursor (dynamic load
  /// balancing), and returns once each index has ended. Without worker
  /// threads, or with n == 1, this is a plain loop on the caller. If an
  /// iteration throws, the call's remaining indices are skipped and the
  /// error lands in the caller's TakeFirstError().
  ///
  /// With `in_order`, the caller also runs in_order(i) for i = 0, 1, ...
  /// as soon as body(i) has returned, in index order and while later
  /// iterations still run; it stops at the first iteration that threw or
  /// was skipped.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& body,
                   const std::function<void(int64_t)>& in_order = nullptr);

  /// Returns the first error caught, since the calling thread's last
  /// call, in the work this thread handed to the pool, and clears it (OK
  /// when none failed). A query calls this at its end to surface worker
  /// failures through its own Status instead of crashing the process.
  Status TakeFirstError();

  /// std::thread::hardware_concurrency() with a floor of 1; the meaning
  /// of `num_threads = 0` in engine options.
  static int DefaultParallelism();

 private:
  struct Call;
  struct Task {
    std::function<void()> run;
    std::thread::id submitter;
  };

  void WorkerLoop();
  void Enqueue(Task task);

  /// Records `error` as `thread`'s first error if it has none.
  void RecordError(std::thread::id thread, Status error);

  const int num_threads_;
  const Caller caller_;
  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  int64_t in_flight_ = 0;  // queued + currently running tasks
  bool shutdown_ = false;

  std::mutex error_mu_;
  /// First error per thread that handed work to the pool, until taken.
  std::unordered_map<std::thread::id, Status> errors_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_UTIL_THREAD_POOL_H_
