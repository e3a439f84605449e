#ifndef FLOWMOTIF_CORE_SLIDING_WINDOW_H_
#define FLOWMOTIF_CORE_SLIDING_WINDOW_H_

#include <vector>

#include "graph/edge_series.h"
#include "graph/types.h"

namespace flowmotif {

/// A sliding-window position [start, end] with end = start + delta
/// (Sec. 4, phase P2).
struct Window {
  Timestamp start;
  Timestamp end;

  friend bool operator==(const Window& a, const Window& b) {
    return a.start == b.start && a.end == b.end;
  }
};

/// anchor + delta, saturating at the maximum representable timestamp:
/// an anchor near numeric_limits::max() with delta > 0 would otherwise
/// be signed-overflow UB (the mirror of the min-sentinel underflow
/// fixed in PR 2). Saturation keeps the semantics — a window clamped at
/// the time axis's end simply cannot gain later elements. Shared by the
/// window scan below and the join baseline's duration filters.
Timestamp WindowEndSaturating(Timestamp anchor, Timestamp delta);

/// Computes the window positions Algorithm 1 actually processes for one
/// structural match:
///
/// * windows are anchored at the elements of the first motif edge's series
///   R(e1) (the instance must contain the temporally first e1 element of
///   its window);
/// * a position is skipped when it contains no element of the last motif
///   edge's series R(em) beyond the previous processed window's end —
///   such positions can only regenerate non-maximal instances (the
///   paper's example: position [13,23] is skipped because [10,20] already
///   covers every e3 element up to time 23).
///
/// `first` is R(e1), `last` is R(em) (the same series when the motif has
/// one edge). Returned windows are ordered by start time; duplicate
/// anchor timestamps yield a single window.
std::vector<Window> ComputeProcessedWindows(const EdgeSeries& first,
                                            const EdgeSeries& last,
                                            Timestamp delta);

/// Same, into a caller-owned buffer (cleared first) — WindowReader
/// reuses one buffer instead of allocating per match. Both overloads are
/// a fresh WindowScan run to the end.
void ComputeProcessedWindows(const EdgeSeries& first, const EdgeSeries& last,
                             Timestamp delta, std::vector<Window>* windows);

/// All window positions, one per distinct R(e1) anchor timestamp, with no
/// novelty filtering. Used only by the ablation study to quantify what
/// the skip rule saves; the extra windows can only regenerate
/// non-maximal or duplicate instances.
std::vector<Window> ComputeAllWindows(const EdgeSeries& first,
                                      Timestamp delta);

/// One match's processed-window scan (the ComputeProcessedWindows rule)
/// as a resumable position: the anchor index into R(e1), the monotone
/// R(em) novelty cursor, and the last processed window. Every
/// processed-window list is produced by one of these — the batch list
/// is a fresh scan run to the end, and the streaming monitor keeps one
/// per match across the epochs of an appending stream
/// (graph/epoch_log.h), advancing it to the watermark at every seal and
/// running a copy to the end for the windows that may still change.
///
/// A scan resumed across calls yields exactly the batch list of the
/// series it last saw, split at the call boundaries, provided that
///  * every call passes the same delta,
///  * the series grow only past the watermark: each element appended
///    between calls has time >= the previous AdvanceBefore's
///    `end_before`, so elements below it keep their indices (the scan
///    only ever refers to those), and
///  * AdvanceToEnd is the last call (the monitor runs it on a copy).
/// A copy of a scan is an independent scan from the same position.
class WindowScan {
 public:
  /// Appends the windows of the remaining anchors whose end is below
  /// `end_before`, and stops at the first anchor whose end reaches it.
  /// Those windows are final: every element that could fall inside one,
  /// or decide its novelty, has time < end_before.
  void AdvanceBefore(const EdgeSeries& first, const EdgeSeries& last,
                     Timestamp delta, Timestamp end_before,
                     std::vector<Window>* out);

  /// Appends the windows of every remaining anchor.
  void AdvanceToEnd(const EdgeSeries& first, const EdgeSeries& last,
                    Timestamp delta, std::vector<Window>* out);

 private:
  /// The scan loop over anchors [anchor_idx_, stop). Inline (defined in
  /// sliding_window.cc, its only user) so that ComputeProcessedWindows
  /// compiles a fresh scan's loop with its state in registers: called
  /// out of line, a long list scanned 10-20% slower.
  inline void Advance(const EdgeSeries& first, const EdgeSeries& last,
                      Timestamp delta, size_t stop,
                      std::vector<Window>* out);

  size_t anchor_idx_ = 0;
  size_t em_cursor_ = 0;
  bool have_processed_ = false;
  Timestamp prev_end_ = 0;
  Timestamp prev_anchor_ = 0;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_SLIDING_WINDOW_H_
