#ifndef FLOWMOTIF_UTIL_PARTITION_H_
#define FLOWMOTIF_UTIL_PARTITION_H_

#include <cstdint>
#include <vector>

namespace flowmotif {

/// A contiguous index range [begin, end) processed as one unit by a
/// worker thread.
struct IndexRange {
  int64_t begin = 0;
  int64_t end = 0;  // exclusive

  int64_t size() const { return end - begin; }
};

/// Partitions [0, n) into contiguous ranges for `num_workers` threads.
/// With `chunk_size` == 0 the size is derived: one range at one worker,
/// otherwise about eight per worker (dynamic scheduling then absorbs
/// work items of very different cost). Ranges are returned in index
/// order; merging per-range outputs in that order reproduces serial
/// processing order. This is the single source of the chunking
/// heuristic shared by the executor's P2 batches (engine/executor.h)
/// and the pooled P1 scan (FindMatchesControlled).
std::vector<IndexRange> PartitionIndexSpace(int64_t n, int num_workers,
                                            int64_t chunk_size = 0);

}  // namespace flowmotif

#endif  // FLOWMOTIF_UTIL_PARTITION_H_
