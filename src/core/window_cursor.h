#ifndef FLOWMOTIF_CORE_WINDOW_CURSOR_H_
#define FLOWMOTIF_CORE_WINDOW_CURSOR_H_

#include <cstddef>
#include <cstdint>
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

class QueryControl;

/// The series of motif edge `edge` (label order) under `binding`, via
/// graph.FindSeries. The one binding-to-series lookup of every
/// per-match path (enumerator, counter, DP, skeleton recorder, streaming
/// monitor), so the contract — and its not-a-match check — cannot drift
/// between them.
const EdgeSeries* ResolveEdgeSeries(const TimeSeriesGraph& graph,
                                    const Motif& motif, MatchRef binding,
                                    int edge);

/// Resolves one structural match's per-level series into `series`
/// (resized to the motif's edge count), given its boundary series
/// `first` = R(e1) and `last` = R(em): only the interior edges are
/// looked up. Every per-match P2 evaluator (counter, enumerator, DP,
/// sweep recorder) resolves the boundary series alone, reads the
/// match's window list from them (all the list depends on), and calls
/// this only when the list is non-empty — most structural matches have
/// no window, and cost two lookups and one scan.
void ResolveMatchSeries(const TimeSeriesGraph& graph, const Motif& motif,
                        MatchRef binding, const EdgeSeries* first,
                        const EdgeSeries* last,
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

/// The memo of one window's suffix recursion — the counter's counts
/// (core/counter.cc), the sweep recorder's state ids (core/skeleton.cc)
/// — keyed by (level, first admissible index). Within a window, level
/// k's keys lie in [lo(k), hi(k)) of the window's cursors, so each level
/// is a flat array over that span with a generation stamp per entry:
/// BeginWindow invalidates every entry with one counter bump instead
/// of a clear, and the arrays only grow to the widest span seen, so one
/// memo serves every window of every match of a loop without
/// allocating once warm.
template <typename Value>
class WindowMemo {
 public:
  /// Starts a window at the cursors' position: sizes level k for the
  /// keys [lo(k), hi(k)) and drops every entry.
  void BeginWindow(const WindowCursorSet& cursors) {
    const size_t m = cursors.num_series();
    if (levels_.size() < m) levels_.resize(m);
    for (size_t k = 0; k < m; ++k) {
      Level& level = levels_[k];
      level.base = cursors.lo(k);
      const size_t span = cursors.hi(k) - level.base;
      if (level.entries.size() < span) level.entries.resize(span);
    }
    ++generation_;
  }

  /// The value stored for (level, first) in this window, or null.
  const Value* Find(size_t level, size_t first) const {
    const Level& l = levels_[level];
    const Entry& entry = l.entries[first - l.base];
    return entry.generation == generation_ ? &entry.value : nullptr;
  }

  void Store(size_t level, size_t first, Value value) {
    Level& l = levels_[level];
    l.entries[first - l.base] = Entry{generation_, value};
  }

 private:
  struct Entry {
    uint64_t generation = 0;  // never current: bumped before first use
    Value value{};
  };
  struct Level {
    size_t base = 0;  // lo(k) of the current window
    std::vector<Entry> entries;
  };
  std::vector<Level> levels_;
  uint64_t generation_ = 0;
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

/// One thread's window-list source: delta, the query control it bills
/// at site "cache.windows", and one reusable buffer. Get is the one place
/// a processed-window list is computed and charged: every evaluation
/// path, the sweep recorder (one reader per delta) and the join baseline
/// read their lists here. Every match computes its list where it reads
/// it and is charged for it, whether or not an earlier match had the
/// same (first, last) pair: a list depends only on the two series and
/// delta, lists average well under one window, and on the benchmark
/// graphs a pair repeats too rarely for any cache to pay (DESIGN.md
/// Sec. 6, "One window source"). An empty list charges nothing.
///
/// A returned list stays valid until this reader's next Get (or its
/// destruction). Not thread-safe: one reader per thread, or per batch.
class WindowReader {
 public:
  explicit WindowReader(Timestamp delta, QueryControl* charge = nullptr)
      : delta_(delta), charge_(charge) {}

  /// The processed-window list of (first, last) at delta
  /// (ComputeProcessedWindows), computed into the buffer and charged
  /// against the control's max_window_elements, one element per window.
  /// A zero charge is skipped: it can never be the first to cross the
  /// cap, and on a sparse graph most lists are empty.
  const std::vector<Window>& Get(const EdgeSeries& first,
                                 const EdgeSeries& last);

  Timestamp delta() const { return delta_; }
  QueryControl* charge() const { return charge_; }

 private:
  Timestamp delta_;
  QueryControl* charge_;  // may be null
  std::vector<Window> windows_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_WINDOW_CURSOR_H_
