#include "util/partition.h"

#include <algorithm>

#include "util/logging.h"

namespace flowmotif {

namespace {
/// Target ranges per worker when the size is derived: enough slack for
/// dynamic load balancing, few enough that per-range bookkeeping (a
/// local result, a local top-k collector, a P1 range's match buffer)
/// stays negligible.
constexpr int64_t kRangesPerWorker = 8;
}  // namespace

std::vector<IndexRange> PartitionIndexSpace(int64_t n, int num_workers,
                                            int64_t chunk_size) {
  FLOWMOTIF_CHECK_GE(n, 0);
  FLOWMOTIF_CHECK_GE(num_workers, 1);
  FLOWMOTIF_CHECK_GE(chunk_size, 0);
  std::vector<IndexRange> ranges;
  if (n == 0) return ranges;
  if (num_workers == 1 && chunk_size == 0) {
    ranges.push_back({0, n});
    return ranges;
  }
  if (chunk_size == 0) {
    const int64_t target =
        static_cast<int64_t>(num_workers) * kRangesPerWorker;
    chunk_size = std::max<int64_t>(1, (n + target - 1) / target);
  }
  ranges.reserve(static_cast<size_t>((n + chunk_size - 1) / chunk_size));
  for (int64_t begin = 0; begin < n; begin += chunk_size) {
    ranges.push_back({begin, std::min(begin + chunk_size, n)});
  }
  return ranges;
}

}  // namespace flowmotif
