#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "util/logging.h"

namespace flowmotif {

namespace {

/// Runs `work`; returns the Internal Status of whatever it threw.
template <typename Work>
Status RunCaught(const Work& work) {
  try {
    work();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("task threw: ") + e.what());
  } catch (...) {
    return Status::Internal("task threw: unknown exception");
  }
  return Status::OK();
}

}  // namespace

/// One ParallelFor call, shared by its caller and the tasks it queued, so
/// a task that a worker dequeues after the call returned still finds the
/// cursor (spent) and touches nothing else. `body` is read only while an
/// index is claimed, and the caller does not return before every claimed
/// index ended.
struct ThreadPool::Call {
  Call(int64_t n, const std::function<void(int64_t)>& body, bool in_order)
      : n(n), body(body), returned(in_order ? static_cast<size_t>(n) : 0) {}

  /// Claims and runs indices until the cursor is spent.
  void Drain() {
    for (int64_t i = cursor.fetch_add(1); i < n; i = cursor.fetch_add(1)) {
      Finish(i, RunCaught([&] { body(i); }));
    }
  }

  /// Ends index i (none for i < 0) with `status`; a failure also ends
  /// every index nobody claimed yet, so later claims find the cursor
  /// spent.
  void Finish(int64_t i, Status status) {
    int64_t count = i >= 0 ? 1 : 0;
    if (!status.ok()) {
      const int64_t next = cursor.exchange(n);
      if (next < n) count += n - next;
    }
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!status.ok()) {
        if (error.ok()) error = std::move(status);
      } else if (i >= 0 && !returned.empty()) {
        returned[static_cast<size_t>(i)] = 1;
      }
      ended += count;
      // The caller waits for the last index, or in order for the next.
      wake = ended == n || !returned.empty();
    }
    if (wake) changed.notify_one();
  }

  const int64_t n;
  const std::function<void(int64_t)>& body;
  std::atomic<int64_t> cursor{0};
  std::mutex mu;
  std::condition_variable changed;  // the caller waits on it
  int64_t ended = 0;                // indices run or skipped; guarded by mu
  std::vector<uint8_t> returned;    // in-order calls only; guarded by mu
  Status error;                     // the call's first; guarded by mu
};

ThreadPool::ThreadPool(int num_threads, Caller caller)
    : num_threads_(num_threads), caller_(caller) {
  FLOWMOTIF_CHECK_GE(num_threads, 1);
  // A computing caller is one of the call's threads; a waiting one at
  // num_threads == 1 runs inline, with no worker.
  const int workers = caller == Caller::kComputes ? num_threads - 1
                      : num_threads == 1         ? 0
                                                 : num_threads;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    {
      Task task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_available_.wait(lock,
                             [this] { return shutdown_ || !queue_.empty(); });
        if (queue_.empty()) return;  // shutdown with a drained queue
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      Status status = RunCaught(task.run);
      if (!status.ok()) RecordError(task.submitter, std::move(status));
    }  // the task and its captures are gone before it counts as done
    std::unique_lock<std::mutex> lock(mu_);
    if (--in_flight_ == 0) all_done_.notify_all();
  }
}

void ThreadPool::RecordError(std::thread::id thread, Status error) {
  std::lock_guard<std::mutex> lock(error_mu_);
  errors_.emplace(thread, std::move(error));  // keeps an earlier one
}

Status ThreadPool::TakeFirstError() {
  std::lock_guard<std::mutex> lock(error_mu_);
  const auto it = errors_.find(std::this_thread::get_id());
  if (it == errors_.end()) return Status::OK();
  Status error = std::move(it->second);
  errors_.erase(it);
  return error;
}

void ThreadPool::Enqueue(Task task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    Status status = RunCaught(task);
    if (!status.ok()) {
      RecordError(std::this_thread::get_id(), std::move(status));
    }
    return;
  }
  Enqueue(Task{std::move(task), std::this_thread::get_id()});
}

void ThreadPool::Wait() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& body,
                             const std::function<void(int64_t)>& in_order) {
  if (n <= 0) return;
  const std::thread::id caller = std::this_thread::get_id();
  if (workers_.empty() || n == 1) {
    for (int64_t i = 0; i < n; ++i) {
      Status status = RunCaught([&] {
        body(i);
        if (in_order) in_order(i);
      });
      if (!status.ok()) {
        RecordError(caller, std::move(status));
        return;
      }
    }
    return;
  }
  // One task per helper the call can use, each draining the call's own
  // cursor: dynamic load balancing without one queue entry per index.
  const auto call = std::make_shared<Call>(n, body, in_order != nullptr);
  const bool computes = caller_ == Caller::kComputes;
  const int64_t num_tasks = std::min<int64_t>(
      computes ? n - 1 : n, static_cast<int64_t>(workers_.size()));
  for (int64_t t = 0; t < num_tasks; ++t) {
    Enqueue(Task{[call] { call->Drain(); }, caller});
  }
  bool claiming = computes;
  bool handing = in_order != nullptr;
  int64_t handed = 0;  // indices passed to in_order
  std::unique_lock<std::mutex> lock(call->mu);
  for (;;) {
    if (handing && handed < n && call->returned[static_cast<size_t>(handed)]) {
      lock.unlock();
      Status status = RunCaught([&] { in_order(handed); });
      if (status.ok()) {
        ++handed;
      } else {
        handing = false;
        call->Finish(-1, std::move(status));
      }
      lock.lock();
      continue;
    }
    if (call->ended == n) break;
    if (claiming) {
      lock.unlock();
      const int64_t i = call->cursor.fetch_add(1);
      if (i < n) {
        call->Finish(i, RunCaught([&] { body(i); }));
      } else {
        claiming = false;
      }
      lock.lock();
      continue;
    }
    call->changed.wait(lock);
  }
  Status error = std::move(call->error);
  lock.unlock();
  if (!error.ok()) RecordError(caller, std::move(error));
}

int ThreadPool::DefaultParallelism() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace flowmotif
