#ifndef FLOWMOTIF_ENGINE_EXECUTOR_H_
#define FLOWMOTIF_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/match_list.h"
#include "core/structural_match.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace flowmotif {

/// The engine's one P2 executor (DESIGN.md Sec. 5). Every P2 mode is a
/// batch kernel plus a fold; the executor cuts match ranges into
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

/// One mode's P2 work over the matches [begin, end) of `matches`, of
/// which match `begin` has serial index `first` (the DiscoveryRank
/// key). Called concurrently for disjoint ranges.
using BatchKernel = std::function<BatchOutput(
    int64_t first, const MatchList& matches, int64_t begin, int64_t end)>;

struct ExecutorStats {
  /// Length of the folded serial match prefix: every match, unless a
  /// control stopped the run.
  int64_t matches_done = 0;
  int64_t num_batches = 0;
  /// Summed time of the P1 shard tasks (0 for a list source); at one
  /// thread this is the P1 wall time.
  double p1_seconds = 0.0;
  /// Summed time of the folded batches.
  double p2_seconds = 0.0;
};

/// Runs `kernel` over every structural match and folds the batch
/// outputs in serial order. Matches come from one of two sources:
///
///  - `list` (non-null): the first `list_size` matches of an existing
///    list, handed in without a copy as one released shard (a list the
///    caller passed to RunOnMatches, RunSweep's shared list, a cached
///    list, or one the engine scanned before P2);
///  - otherwise P1 shards of `matcher` — contiguous work-unit ranges,
///    each scanned as a pool task by core/structural_match.h's one flat
///    scan (ScanMatchUnits) into a MatchList and released in
///    serial order by a ShardPrefixMerger, each shard's batches
///    submitted to the front of the pool queue so P2 runs while later
///    shards are still matching.
///
/// Batches hold `batch_size` matches when it is positive; otherwise a
/// whole shard at one thread and at most 256 matches at more threads.
/// Under a control each batch starts with an unthrottled "p2.batch"
/// check, and the fold stops at the first incomplete batch or the first
/// shard whose P1 scan stopped, so the folded output covers exactly the
/// first `matches_done` matches.
ExecutorStats ExecuteBatches(const StructuralMatcher& matcher,
                             const MatchList* list, int64_t list_size,
                             int64_t batch_size, ThreadPool* pool,
                             QueryControl* control, const BatchKernel& kernel);

}  // namespace flowmotif

#endif  // FLOWMOTIF_ENGINE_EXECUTOR_H_
