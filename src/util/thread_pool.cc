#include "util/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "util/logging.h"

namespace flowmotif {

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  FLOWMOTIF_CHECK_GE(num_threads, 1);
  if (num_threads == 1) return;  // inline mode, no workers
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
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
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    RunTask(task);
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::RunTask(const std::function<void()>& task) {
  try {
    task();
  } catch (const std::exception& e) {
    RecordError(e.what());
  } catch (...) {
    RecordError("unknown exception");
  }
}

void ThreadPool::RecordError(const std::string& message) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_error_.ok()) {
    first_error_ = Status::Internal("task threw: " + message);
  }
}

Status ThreadPool::TakeFirstError() {
  std::lock_guard<std::mutex> lock(error_mu_);
  Status status = std::move(first_error_);
  first_error_ = Status::OK();
  return status;
}

void ThreadPool::Submit(std::function<void()> task) {
  if (num_threads_ == 1) {
    RunTask(task);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  if (num_threads_ == 1) return;
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& body) {
  if (n <= 0) return;
  if (num_threads_ == 1 || n == 1) {
    for (int64_t i = 0; i < n; ++i) {
      try {
        body(i);
      } catch (const std::exception& e) {
        RecordError(e.what());
        return;
      } catch (...) {
        RecordError("unknown exception");
        return;
      }
    }
    return;
  }
  // One task per worker pulling indices from a shared cursor: cheap
  // dynamic load balancing without one queue entry per index.
  auto cursor = std::make_shared<std::atomic<int64_t>>(0);
  const int64_t num_tasks =
      std::min<int64_t>(n, static_cast<int64_t>(num_threads_));
  for (int64_t t = 0; t < num_tasks; ++t) {
    Submit([this, cursor, n, &body] {
      for (int64_t i = cursor->fetch_add(1); i < n;
           i = cursor->fetch_add(1)) {
        try {
          body(i);
        } catch (const std::exception& e) {
          RecordError(e.what());
          cursor->store(n);  // drain: skip the remaining indices
          return;
        } catch (...) {
          RecordError("unknown exception");
          cursor->store(n);
          return;
        }
      }
    });
  }
  Wait();
}

int ThreadPool::DefaultParallelism() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace flowmotif
