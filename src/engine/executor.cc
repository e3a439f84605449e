#include "engine/executor.h"

#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "util/failpoint.h"
#include "util/partition.h"
#include "util/timer.h"

namespace flowmotif {

namespace {

/// Applies batch folds in serial match order. Batches arrive in any
/// order; one is folded once every batch before it has been, and the
/// fold closes for good at the first batch that ran incomplete — later
/// matches are not part of any canonical prefix. Thread-safe; folds run
/// under the lock, since they must run one at a time and in order.
class SerialFold {
 public:
  void Arrive(int64_t first, int64_t len, double seconds, BatchOutput out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    pending_.emplace(first, Batch{len, seconds, std::move(out)});
    while (!closed_ && !pending_.empty() &&
           pending_.begin()->first == stats_.matches_done) {
      Batch batch = std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      if (batch.out.fold) batch.out.fold();
      stats_.matches_done += batch.out.processed;
      stats_.p2_seconds += batch.seconds;
      closed_ = batch.out.processed != batch.len;
    }
  }

  /// Read after the pool drained.
  const ExecutorStats& stats() const { return stats_; }

 private:
  struct Batch {
    int64_t len = 0;
    double seconds = 0.0;
    BatchOutput out;
  };

  std::mutex mu_;
  std::map<int64_t, Batch> pending_;  // keyed by first serial index
  bool closed_ = false;
  ExecutorStats stats_;
};

}  // namespace

ExecutorStats ExecuteBatches(const MatchList& matches, int64_t size,
                             int64_t batch_size, ThreadPool* pool,
                             QueryControl* control,
                             const BatchKernel& kernel) {
  const std::vector<IndexRange> batches =
      PartitionIndexSpace(size, pool->num_threads(), batch_size);
  SerialFold fold;
  pool->ParallelFor(static_cast<int64_t>(batches.size()), [&](int64_t b) {
    const IndexRange batch = batches[static_cast<size_t>(b)];
    WallTimer timer;
    BatchOutput out;
    // Batch boundary: an unthrottled deadline read, so a fresh batch
    // never starts on an already-expired deadline — overshoot stays
    // bounded by one batch's throttle window, never a multiple.
    if (control == nullptr ||
        !control->CheckAtBoundary(failpoint::kP2Batch)) {
      out = kernel(matches, batch.begin, batch.end);
    }
    fold.Arrive(batch.begin, batch.size(), timer.ElapsedSeconds(),
                std::move(out));
  });
  ExecutorStats stats = fold.stats();
  stats.num_batches = static_cast<int64_t>(batches.size());
  return stats;
}

}  // namespace flowmotif
