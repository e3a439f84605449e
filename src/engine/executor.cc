#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "engine/batching.h"
#include "util/failpoint.h"
#include "util/partition.h"
#include "util/timer.h"

namespace flowmotif {

namespace {

/// Batch cap at more than one thread when batch_size is unset. Batches
/// are cut per released P1 shard, so a count-derived size is
/// unavailable; a fixed cap keeps batches small enough for load
/// balancing and independent of timing, so the layout is deterministic.
constexpr int64_t kBatchCap = 256;

constexpr int64_t kNoStoppedShard = std::numeric_limits<int64_t>::max();

/// The one per-unit P1 scan: appends the vertices of each match of
/// work units `units` to `out` in serial order — flat, so no allocation
/// per match. Under a control each unit is preceded by a "p1.unit"
/// check, and `cap` >= 0 ends the scan when a match arrives while `out`
/// already holds `cap`. Returns false when the scan ended early either
/// way; `out` then holds a canonical prefix of the units.
bool ScanUnits(const StructuralMatcher& matcher, IndexRange units,
               QueryControl* control, int64_t cap, MatchList* out) {
  const StructuralMatcher::MatchVisitor push =
      [out, cap](const MatchBinding& binding) {
        if (cap >= 0 && out->size() >= cap) return false;
        out->Append(binding);
        return true;
      };
  if (control == nullptr) {
    return matcher.FindInUnits(units.begin, units.end, push);
  }
  for (int64_t u = units.begin; u < units.end; ++u) {
    if (control->CheckAt(failpoint::kP1Unit) ||
        !matcher.FindInUnits(u, u + 1, push)) {
      return false;
    }
  }
  return true;
}

/// Called from a P1 shard's task with its matches and whether its scan
/// ran to the end.
using ShardFn =
    std::function<void(int64_t shard, MatchList matches, bool complete)>;

/// P1 as one pool task per shard: contiguous work-unit ranges, several
/// per worker, so dynamic scheduling absorbs the match-density skew
/// across origins. Returns after pool->Wait(), so whatever `on_shard`
/// submitted has run too, with the summed scan time of the shard tasks
/// (taken before `on_shard`, which at one thread runs P2 inline).
double ScanShards(const StructuralMatcher& matcher,
                  const std::vector<IndexRange>& shards, ThreadPool* pool,
                  QueryControl* control, const ShardFn& on_shard) {
  std::vector<double> seconds(shards.size(), 0.0);
  for (size_t s = 0; s < shards.size(); ++s) {
    pool->Submit([&, s] {
      WallTimer timer;
      MatchList matches(matcher.motif().num_nodes());
      const bool complete =
          ScanUnits(matcher, shards[s], control, /*cap=*/-1, &matches);
      seconds[s] = timer.ElapsedSeconds();
      on_shard(static_cast<int64_t>(s), std::move(matches), complete);
    });
  }
  pool->Wait();
  double total = 0.0;
  for (const double t : seconds) total += t;
  return total;
}

std::vector<IndexRange> P1Shards(const StructuralMatcher& matcher,
                                 const ThreadPool& pool) {
  return PartitionIndexSpace(matcher.NumWorkUnits(), pool.num_threads());
}

/// Applies batch folds in serial match order. Batches arrive in any
/// order; one is folded once every batch before it has been, and the
/// fold closes for good at the first batch that ran incomplete or that
/// comes from a shard after the first stopped P1 shard — later matches
/// are not part of any canonical prefix. Thread-safe; folds run under
/// the lock, since they must run one at a time and in order.
class SerialFold {
 public:
  explicit SerialFold(const std::atomic<int64_t>* stopped_shard)
      : stopped_shard_(stopped_shard) {}

  void Arrive(int64_t first, int64_t len, int64_t shard, double seconds,
              BatchOutput out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    pending_.emplace(first, Batch{len, shard, seconds, std::move(out)});
    while (!closed_ && !pending_.empty() &&
           pending_.begin()->first == stats_.matches_done) {
      Batch batch = std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      // A shard's batches are submitted only after every earlier shard
      // completed, and a stopped shard records itself before it
      // completes, so the stop of any earlier shard is visible here.
      if (batch.shard > stopped_shard_->load(std::memory_order_relaxed)) {
        closed_ = true;
        break;
      }
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
    int64_t shard = 0;
    double seconds = 0.0;
    BatchOutput out;
  };

  const std::atomic<int64_t>* stopped_shard_;
  std::mutex mu_;
  std::map<int64_t, Batch> pending_;  // keyed by first serial index
  bool closed_ = false;
  ExecutorStats stats_;
};

}  // namespace

ExecutorStats ExecuteBatches(const StructuralMatcher& matcher,
                             const MatchList* list, int64_t list_size,
                             int64_t batch_size, ThreadPool* pool,
                             QueryControl* control,
                             const BatchKernel& kernel) {
  const int64_t cap = batch_size > 0 ? batch_size
                      : pool->num_threads() == 1
                          ? std::numeric_limits<int64_t>::max()  // whole shard
                          : kBatchCap;
  std::atomic<int64_t> stopped_shard{kNoStoppedShard};
  std::atomic<int64_t> num_batches{0};
  SerialFold fold(&stopped_shard);

  // Cuts the first `n` matches of one released shard into batches at
  // the front of the pool queue — ahead of still-queued P1 shard tasks,
  // or FIFO order would finish all of P1 (every shard buffer live at
  // once) before P2 starts. `retire` runs once the shard's last batch
  // is done.
  const auto submit_shard = [&](int64_t shard, int64_t first,
                                const MatchList* matches, int64_t n,
                                const std::function<void()>& retire) {
    if (n == 0) {
      if (retire) retire();
      return;
    }
    const int64_t count = 1 + (n - 1) / cap;
    num_batches.fetch_add(count, std::memory_order_relaxed);
    auto outstanding = std::make_shared<std::atomic<int64_t>>(count);
    for (int64_t b = 0; b < n; b += cap) {
      const int64_t len = std::min(cap, n - b);
      pool->SubmitFront([&fold, &kernel, control, retire, outstanding, shard,
                         first = first + b, matches, b, len] {
        WallTimer timer;
        BatchOutput out;
        // Batch boundary: an unthrottled deadline read, so a fresh batch
        // never starts on an already-expired deadline — overshoot stays
        // bounded by one batch's throttle window, never a multiple.
        if (control == nullptr ||
            !control->CheckAtBoundary(failpoint::kP2Batch)) {
          out = kernel(first, *matches, b, b + len);
        }
        fold.Arrive(first, len, shard, timer.ElapsedSeconds(),
                    std::move(out));
        // acq_rel orders every batch's reads of the buffer before the
        // last decrementer's retire.
        if (outstanding->fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            retire) {
          retire();
        }
      });
    }
  };

  double p1_seconds = 0.0;
  if (list != nullptr) {
    submit_shard(0, 0, list, list_size, nullptr);
    pool->Wait();
  } else {
    const std::vector<IndexRange> shards = P1Shards(matcher, *pool);
    ShardPrefixMerger merger(static_cast<int64_t>(shards.size()));
    p1_seconds = ScanShards(
        matcher, shards, pool, control,
        [&](int64_t shard, MatchList matches, bool complete) {
          if (!complete) {
            int64_t cur = stopped_shard.load(std::memory_order_relaxed);
            while (shard < cur && !stopped_shard.compare_exchange_weak(
                                      cur, shard, std::memory_order_relaxed)) {
            }
          }
          for (const ShardPrefixMerger::ReleasedShardEntry& entry :
               merger.Complete(shard, std::move(matches))) {
            const MatchList* buffer = entry.released.matches;
            // The last batch frees the shard's buffer, so peak memory
            // tracks the in-flight window, not the full match list.
            submit_shard(entry.shard, entry.released.first_match_index,
                         buffer, buffer->size(),
                         [&merger, s = entry.shard] { merger.FreeShard(s); });
          }
        });
  }
  ExecutorStats stats = fold.stats();
  stats.num_batches = num_batches.load(std::memory_order_relaxed);
  stats.p1_seconds = p1_seconds;
  return stats;
}

MatchList FindMatchesControlled(const StructuralMatcher& matcher,
                                ThreadPool* pool, QueryControl* control) {
  MatchList matches(matcher.motif().num_nodes());
  const int64_t max_matches =
      control != nullptr ? control->budget().max_matches : -1;
  if (max_matches >= 0) {
    // Serial unit scan so the cut lands at exactly max_matches in
    // canonical order, independent of scheduling. A cut is a soft
    // truncation: P2 still runs, exactly, over the kept prefix.
    if (!ScanUnits(matcher, {0, matcher.NumWorkUnits()}, control,
                   max_matches, &matches) &&
        !control->ShouldStop()) {
      control->MarkTruncated(TerminationCode::kBudgetExceeded,
                             failpoint::kP1Unit, "max_matches");
    }
    return matches;
  }
  const std::vector<IndexRange> shards = P1Shards(matcher, *pool);
  std::vector<MatchList> buffers(shards.size());
  std::vector<uint8_t> complete(shards.size(), 0);
  ScanShards(matcher, shards, pool, control,
             [&](int64_t shard, MatchList found, bool done) {
               buffers[static_cast<size_t>(shard)] = std::move(found);
               complete[static_cast<size_t>(shard)] = done ? 1 : 0;
             });
  // At one thread one shard holds the whole list: no concatenation.
  if (buffers.size() == 1) return std::move(buffers.front());
  int64_t total = 0;
  for (const MatchList& buffer : buffers) total += buffer.size();
  matches.Reserve(total);
  for (size_t s = 0; s < shards.size(); ++s) {
    matches.Append(buffers[s]);
    if (complete[s] == 0) break;
  }
  return matches;
}

}  // namespace flowmotif
