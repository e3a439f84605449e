#ifndef FLOWMOTIF_ENGINE_EXECUTOR_H_
#define FLOWMOTIF_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <functional>

#include "core/match_list.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace flowmotif {

/// The engine's one P2 executor (DESIGN.md Sec. 5). Every P2 mode is a
/// batch kernel plus a fold; the executor cuts a match list into
/// batches, runs the kernel on the pool, and applies the folds in
/// serial match order.

/// What a batch kernel returns: how many leading matches of its range
/// it finished (the whole range unless a QueryControl stopped it), and
/// the fold that merges its output into the query result. The executor
/// runs folds one at a time, in serial match order, so a fold may
/// mutate shared result state without locking. May be empty.
struct BatchOutput {
  int64_t processed = 0;
  std::function<void()> fold;
};

/// One mode's P2 work over the matches [begin, end) of `matches`; match
/// i's serial index (the DiscoveryRank key) is i. Called concurrently
/// for disjoint ranges.
using BatchKernel = std::function<BatchOutput(const MatchList& matches,
                                              int64_t begin, int64_t end)>;

struct ExecutorStats {
  /// Length of the folded serial match prefix: every match, unless a
  /// control stopped the run.
  int64_t matches_done = 0;
  int64_t num_batches = 0;
  /// Summed time of the folded batches.
  double p2_seconds = 0.0;
};

/// Runs `kernel` over the first `size` matches of `matches` and folds
/// the batch outputs in serial order. The batches are
/// PartitionIndexSpace(size, pool->num_threads(), batch_size): one at
/// one thread unless `batch_size` is set, several per worker otherwise,
/// run through ThreadPool::ParallelFor. Under a control each batch
/// starts with an unthrottled "p2.batch" check, and the fold closes at
/// the first incomplete batch, so the folded output covers exactly the
/// first `matches_done` matches; a run whose control stopped before P2
/// (a hard stop in the P1 scan) folds nothing.
ExecutorStats ExecuteBatches(const MatchList& matches, int64_t size,
                             int64_t batch_size, ThreadPool* pool,
                             QueryControl* control, const BatchKernel& kernel);

}  // namespace flowmotif

#endif  // FLOWMOTIF_ENGINE_EXECUTOR_H_
