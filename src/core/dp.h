#ifndef FLOWMOTIF_CORE_DP_H_
#define FLOWMOTIF_CORE_DP_H_

#include <optional>
#include <vector>

#include "core/instance.h"
#include "core/match_list.h"
#include "core/motif.h"
#include "core/sliding_window.h"
#include "core/structural_match.h"
#include "core/window_cursor.h"
#include "graph/time_series_graph.h"

namespace flowmotif {

class QueryControl;

/// Dynamic-programming module for top-1 flow motif search (Sec. 5.1,
/// Algorithm 2). For a structural match and a window T with interaction
/// timestamps t1..t_tau, it computes
///
///   Flow([t1,ti],k) = max_{1<j<=i} min(Flow([t1,t_{j-1}],k-1),
///                                      flow([tj,ti],k))          (Eq. 2)
///
/// where flow([tj,ti],k) is the aggregated flow of the k-th edge's
/// elements inside [tj,ti] — a genuine O(1) prefix-sum subtraction here:
/// the per-window setup precomputes, for every motif edge and every
/// timeline entry, the series index bounds of that timestamp, so no DP
/// lookup ever binary-searches. The final Flow([t1,t_tau],m) is the best
/// instance flow in the window; maximizing over windows and matches
/// yields the global top-1. A traceback reconstructs the argmax instance
/// (the bold cells of Table 2).
///
/// Window processing is *incremental* on the shared core/window_cursor
/// layer: windows of a match are anchored on the sorted first-series
/// timestamps, so per-match WindowCursorSet cursors slide forward
/// instead of re-running binary searches, the union timeline is rebuilt
/// by a k-way merge (UnionTimeline), and flat offset rows
/// (TimelineOffsets) make every Eq. 2 lookup O(1). Each match's window
/// list comes out of the Scratch's WindowReader.
class MaxFlowDpSearcher {
 public:
  struct Result {
    bool found = false;
    Flow max_flow = 0.0;
    MotifInstance best;       // populated when found
    MatchBinding binding;     // match that produced the best instance
    Window window{0, 0};      // window that produced it
    int64_t num_windows = 0;  // windows processed
    double seconds = 0.0;     // phase-P2 time
    /// Matches of the input range fully processed before returning —
    /// equal to the range length unless a QueryControl stopped the run,
    /// in which case the incumbent covers exactly the first
    /// matches_processed matches (a contiguous prefix).
    int64_t matches_processed = 0;
  };

  /// Best instance flow per window position of one match — the paper's
  /// "top-1 instance for each position of the sliding window"
  /// extensibility mode.
  struct WindowBest {
    Window window{0, 0};
    bool found = false;
    Flow max_flow = 0.0;
  };

  /// Reusable cross-match state. The DP runs once per window and would
  /// otherwise spend most of its time reallocating the timeline, the
  /// offset maps, and the table rows; a caller running many match
  /// ranges hands the same Scratch to successive RunOnMatches calls so
  /// the buffers survive range boundaries. One Scratch per thread.
  ///
  /// A Scratch is bound to one (graph, delta, control) configuration on
  /// first use and checked on every run. Scratch reuse never changes
  /// results: all per-window state is fully overwritten.
  struct Scratch {
    // Per-match series resolution (ResolveSeries target, one motif edge
    // per entry).
    std::vector<const EdgeSeries*> series;

    // Sliding per-series window cursors (core/window_cursor.h).
    WindowCursorSet cursors;

    // Union timeline of the current window and the flat m x tau offset
    // rows over it.
    UnionTimeline timeline;
    TimelineOffsets offsets;

    // Flat m x tau DP tables, row stride tau (single allocation instead
    // of vector-of-vectors).
    std::vector<Flow> flow_table;
    std::vector<size_t> choice;

    // This thread's window reader at the searcher's delta, charging the
    // control of the first run — made at first use.
    std::optional<WindowReader> windows;

    // First-use binding (graph + delta) guarding against accidental
    // reuse across incompatible searchers.
    const TimeSeriesGraph* bound_graph = nullptr;
    Timestamp bound_delta = 0;
  };

  MaxFlowDpSearcher(const TimeSeriesGraph& graph, const Motif& motif,
                    Timestamp delta);
  // The searcher keeps a reference to the graph: temporaries would dangle.
  MaxFlowDpSearcher(TimeSeriesGraph&&, const Motif&, Timestamp) = delete;

  /// Global top-1 over the whole graph (phase P1 + DP per match).
  Result Run() const;

  /// DP over precomputed matches only (isolates phase P2, Fig. 12).
  /// Converts the list to a MatchList once.
  Result RunOnMatches(const std::vector<MatchBinding>& matches) const;

  /// Same over the matches [begin, end) of a flat list — the engine's
  /// P2 batches hand each their index range without copying — with
  /// caller-owned Scratch, so successive calls reuse the buffers (the
  /// Scratch must only ever be used with searchers on the same graph
  /// and delta). The incumbent best carries across the range, so the
  /// admissible window bound prunes within a batch exactly as over a
  /// whole list. `control` (may be null, the zero-overhead path) adds a
  /// cooperative cancellation point per match (site "dp.match" — this
  /// outer loop is the kTop1 hot path) and is billed for every match's
  /// window list (site "cache.windows"); on stop the
  /// returned Result covers the first matches_processed matches of the
  /// range exactly.
  Result RunOnMatches(const MatchList& matches, int64_t begin, int64_t end,
                      Scratch* scratch, QueryControl* control = nullptr) const;

  /// Top-1 within a single structural match.
  Result RunOnMatch(MatchRef binding) const;

  /// Top-1 per window position within a single structural match.
  std::vector<WindowBest> RunPerWindow(MatchRef binding) const;

 private:
  /// Runs the DP for one window of one match, using the cursors and
  /// buffers in `scratch` (BeginMatch must have run for this match);
  /// updates `result` if a better instance is found. Returns the
  /// window's best flow (0 if no valid instance).
  Flow DpOverWindow(MatchRef binding, const Window& window, Scratch* scratch,
                    Result* result) const;

  /// Resolves the match's per-edge series into scratch->series, resets
  /// the window cursors, and returns the match's processed-window list
  /// (through scratch->windows).
  const std::vector<Window>& BeginMatch(MatchRef binding,
                                        Scratch* scratch) const;

  /// Binds `scratch` to this searcher's (graph, delta) and `control` —
  /// making its window reader — or checks the existing binding.
  void CheckScratch(Scratch* scratch, QueryControl* control) const;

  const TimeSeriesGraph& graph_;
  const Motif motif_;
  Timestamp delta_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_DP_H_
