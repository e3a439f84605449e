#ifndef FLOWMOTIF_CORE_WINDOW_CURSOR_H_
#define FLOWMOTIF_CORE_WINDOW_CURSOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/match_list.h"
#include "core/motif.h"
#include "core/sliding_window.h"
#include "graph/edge_series.h"
#include "graph/time_series_graph.h"
#include "graph/types.h"

namespace flowmotif {

/// Shared incremental-window machinery of the three per-window
/// evaluation paths — the top-1 DP (core/dp.cc), the counting recursion
/// (core/counter.cc), and the join baseline (core/join_baseline.cc).
///
/// A match's processed windows come out of ComputeProcessedWindows
/// ordered by anchor, so both window bounds are non-decreasing across
/// the sweep. Everything here leans on that monotonicity: cursors only
/// ever advance (galloping, O(log gap) in the distance moved), so a
/// full window sweep pays O(series length) total instead of one binary
/// search per window — or, before PR 3/4, per recursion call.

/// True iff some motif node is absent from the endpoints of the first
/// and last motif edges. Only then can two distinct bindings share the
/// same (first, last) series pair — otherwise the two series pointers
/// pin every bound vertex and a window cache keyed on the pair could
/// never hit within one graph.
bool MotifHasInteriorNode(const Motif& motif);

class QueryControl;
class SharedWindowCache;

/// Resolves the cache a per-window evaluation path should read through
/// — the one policy shared by the enumerator, counter, DP searcher and
/// skeleton recorder: the injected cache when given (its delta must
/// equal `delta`; the caller decided it pays, as the engine, the
/// serving tier and the significance ensemble do); else a privately
/// owned cache, allocated into `*owned`, iff the motif has an interior
/// node; else null (windows are computed per match). `owned` must
/// outlive the returned pointer.
SharedWindowCache* ResolveWindowCache(
    SharedWindowCache* injected, const Motif& motif, Timestamp delta,
    std::unique_ptr<SharedWindowCache>* owned);

/// Resolves one structural match's per-level series: the motif's
/// label-ordered edges mapped through `binding` via graph.FindSeries.
/// Shared by every per-match evaluation path (enumerator, counter, DP,
/// skeleton recorder) so the binding-to-series contract — and its
/// not-a-match check — cannot drift between them. `series` is resized
/// to the motif's edge count.
void ResolveMatchSeries(const TimeSeriesGraph& graph, const Motif& motif,
                        MatchRef binding,
                        std::vector<const EdgeSeries*>* series);

/// Per-series sliding cursors over one match's window sweep:
/// lo[k] = LowerBound(window.start), hi[k] = UpperBound(window.end) of
/// the current window on the k-th motif edge's series. Invariants: both
/// are non-decreasing across a match's windows (starts and ends are
/// sorted), and lo[k] <= hi[k] for every window.
class WindowCursorSet {
 public:
  /// Binds the cursors to one match's resolved series and rewinds them
  /// to the series fronts. `series` must outlive the next Reset.
  void Reset(const std::vector<const EdgeSeries*>& series) {
    series_ = &series;
    lo_.assign(series.size(), 0);
    hi_.assign(series.size(), 0);
  }

  /// Slides every cursor to `window`. Windows must be visited in
  /// non-decreasing (start, end) order.
  void AdvanceTo(const Window& window) {
    const std::vector<const EdgeSeries*>& series = *series_;
    for (size_t k = 0; k < series.size(); ++k) {
      lo_[k] = series[k]->AdvanceLowerBound(lo_[k], window.start);
      hi_[k] = series[k]->AdvanceUpperBound(hi_[k], window.end);
    }
  }

  size_t lo(size_t k) const { return lo_[k]; }
  size_t hi(size_t k) const { return hi_[k]; }
  const std::vector<size_t>& lo_indices() const { return lo_; }
  const std::vector<size_t>& hi_indices() const { return hi_; }
  size_t num_series() const { return lo_.size(); }

 private:
  const std::vector<const EdgeSeries*>* series_ = nullptr;
  std::vector<size_t> lo_;
  std::vector<size_t> hi_;
};

/// Union timeline t1..t_tau of the current window: a k-way merge of the
/// per-series sorted slices [lo, hi) into a reusable buffer (no
/// push-all + sort + unique). The motif has a handful of edges, so the
/// linear min-scan beats a heap.
class UnionTimeline {
 public:
  void Build(const std::vector<const EdgeSeries*>& series,
             const WindowCursorSet& cursors);

  const std::vector<Timestamp>& times() const { return times_; }
  size_t size() const { return times_.size(); }
  Timestamp operator[](size_t i) const { return times_[i]; }

 private:
  std::vector<Timestamp> times_;
  std::vector<size_t> heads_;  // k-way merge heads
};

/// Flat m x tau per-series timeline offsets, row stride tau:
/// lower(k, i) / upper(k, i) are series k's LowerBound / UpperBound of
/// timeline[i], filled by one monotone two-cursor sweep per row. They
/// turn every flow([tj,ti],k) of Eq. 2 — and the DP traceback's
/// edge-set ranges — into an O(1)
/// FlowInIndexRange(lower(k,j), upper(k,i)) prefix subtraction.
///
/// The sweeps clamp at [lo, hi]: timeline entries lie inside
/// [start, end], so the global bounds can never fall outside the cursor
/// range.
class TimelineOffsets {
 public:
  void Build(const std::vector<const EdgeSeries*>& series,
             const WindowCursorSet& cursors, const UnionTimeline& timeline);

  size_t lower(size_t k, size_t i) const { return lower_[k * tau_ + i]; }
  size_t upper(size_t k, size_t i) const { return upper_[k * tau_ + i]; }
  const size_t* lower_row(size_t k) const { return lower_.data() + k * tau_; }
  const size_t* upper_row(size_t k) const { return upper_.data() + k * tau_; }

 private:
  std::vector<size_t> lower_;
  std::vector<size_t> upper_;
  size_t tau_ = 0;
};

/// Shared cache of processed-window lists, keyed on the (first, last)
/// *timestamp-storage identities* of the series pair
/// (EdgeSeries::timestamp_identity()) — built once per pair and served
/// to every evaluation path (DP, counter, enumerator, join, skeleton
/// recorder) and every worker thread that reads it.
///
/// Window lists depend only on timestamps and delta, and the identity is
/// shared by a series and all its flow-permuted views, so one cache is
/// warm across a whole significance ensemble: lists computed on the real
/// graph are hit by every randomized view.
///
/// Keying on storage identities means a cache must never outlive the
/// timestamp storage it indexes, and sharing it across graphs built
/// independently is pointless (their identities are distinct, so
/// entries would just never hit). Identities carry an epoch stamp
/// (graph/types.h), so under an appending EpochLog a cache held across
/// seals keeps hitting for series untouched by the seal, misses (never
/// aliases) for resealed dirty series, and stays immune to freed-storage
/// address reuse.
///
/// One storage discipline, a two-generation clock: entries live in a
/// current and a previous generation of at most max_entries() each. A
/// miss that finds the current generation full *rotates* — previous is
/// dropped from the publication path, current becomes previous, a fresh
/// current takes inserts — and a hit in the previous generation is
/// promoted (copied) into the current one, so an entry survives rotation
/// iff it was touched during the current generation's lifetime. A cache
/// never stops admitting pairs, whether it lives for one query or for a
/// whole service. Inside a generation, lookups and inserts are
/// lock-free: entries are immutable once published, inserted at bucket
/// heads with a CAS, and freed only with their generation.
///
/// One read path, the Reader (below): generations are shared_ptr-owned
/// and a reader reaches them only through its lease on the current
/// pair, so a rotation only unpublishes a generation — its nodes are
/// freed when the last reader leasing it moves on.
class SharedWindowCache {
 private:
  struct Node;
  struct Generation;

 public:
  static constexpr size_t kDefaultMaxEntries = 1024;

  /// A cache of at most `max_entries` entries per generation (so up to
  /// twice that between rotations).
  explicit SharedWindowCache(Timestamp delta,
                             size_t max_entries = kDefaultMaxEntries);
  ~SharedWindowCache();
  SharedWindowCache(const SharedWindowCache&) = delete;
  SharedWindowCache& operator=(const SharedWindowCache&) = delete;

  /// One thread's window-list source: a cache (or null), delta, the
  /// query control charged at site "cache.windows" for every list this
  /// reader materializes (hits are free — the list was charged when
  /// first computed), and a lease on the cache's generation pair, taken
  /// at the first lookup rather than at construction (a lease that aged
  /// through phase P1 would start on generations the cache has since
  /// rotated past). Without a cache — or with a zero-capacity one — the
  /// reader computes every list into its own buffer.
  ///
  /// The contract: a returned list stays valid until this reader's next
  /// Get (or its destruction). It always lives in the reader's current
  /// lease pair (or its buffer), so between calls a reader pins at most
  /// two generations, however many rotations happen under it. Not
  /// thread-safe: one reader per thread, or per batch; it must not
  /// outlive its cache.
  class Reader {
   public:
    Reader(SharedWindowCache* cache, Timestamp delta,
           QueryControl* charge = nullptr);

    /// The processed-window list of (first, last) at delta — from the
    /// lease when a generation holds it, else computed and published.
    /// Two series with equal timestamp_identity() (a series and its
    /// flow-permuted views) share one entry.
    const std::vector<Window>& Get(const EdgeSeries& first,
                                   const EdgeSeries& last);

    QueryControl* charge() const { return charge_; }

   private:
    friend class SharedWindowCache;
    SharedWindowCache* cache_;  // null: compute into own_
    Timestamp delta_;
    QueryControl* charge_;  // may be null
    std::shared_ptr<Generation> cur_;  // the lease; null until leased
    std::shared_ptr<Generation> prev_;
    std::vector<Window> own_;
  };

  Timestamp delta() const { return delta_; }
  size_t max_entries() const { return max_entries_; }

  /// Number of generation rotations full generations have forced.
  int64_t num_rotations() const {
    return rotations_.load(std::memory_order_relaxed);
  }

  /// Generations allocated and not yet freed: the cache's own pair plus
  /// any older one a reader's lease still pins.
  int64_t num_live_generations() const {
    return live_generations_.load(std::memory_order_relaxed);
  }

  /// Number of reserved entry slots across the published generation
  /// pair (== published entries once all in-flight inserts finish);
  /// never above 2 * max_entries().
  size_t size() const;

  /// Lookup / hit counters (relaxed; exact once concurrent readers
  /// drained).
  int64_t num_lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }
  int64_t num_hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  /// Reader::Get with a cache: hit in the leased current generation,
  /// else hit-and-promote from the leased previous one, else compute
  /// and insert, rotating while the current generation is full.
  const std::vector<Window>& Lookup(Reader* reader, const EdgeSeries& first,
                                    const EdgeSeries& last);
  /// Finds the published entry for the pair in `gen`, or null.
  static Node* FindIn(const Generation& gen, const StorageIdentity& first_id,
                      const StorageIdentity& last_id);
  /// Reserves one entry slot in `gen`; false when full.
  static bool TryReserve(Generation* gen);
  /// Publishes an already-reserved `node` into `gen`, resolving racing
  /// same-key inserts (loser is deleted, winner's list returned).
  static const std::vector<Window>& InsertReserved(Generation* gen,
                                                   Node* node);
  /// Rotates if `reader` leases the newest generation (it found it
  /// full), then moves the lease to the cache's current pair. With no
  /// lease yet, only leases.
  void Renew(Reader* reader);

  const Timestamp delta_;
  const size_t max_entries_;

  /// Declared before the generations it counts, so it outlives them.
  std::atomic<int64_t> live_generations_{0};

  /// The rotation lock guards only the pair of generation pointers —
  /// lookups and inserts inside a generation stay lock-free.
  mutable std::mutex gen_mu_;
  std::shared_ptr<Generation> cur_;
  std::shared_ptr<Generation> prev_;
  std::atomic<int64_t> rotations_{0};

  std::atomic<int64_t> lookups_{0};
  std::atomic<int64_t> hits_{0};
};

/// Bills one freshly materialized window list against `control`'s
/// WorkBudget at site "cache.windows" — the single charging point every
/// materialization path shares (a reader's publish or private compute,
/// the sweep recorder's multi-delta scan), so max_window_elements /
/// max_memory_bytes hold regardless of cache eligibility.
/// `container_bytes` adds fixed per-list overhead (e.g. a cache node).
/// Null control = no-op.
void ChargeComputedWindows(QueryControl* control, size_t num_windows,
                           size_t container_bytes);

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_WINDOW_CURSOR_H_
