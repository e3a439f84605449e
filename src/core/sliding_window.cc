#include "core/sliding_window.h"

#include <algorithm>
#include <limits>

namespace flowmotif {

Timestamp WindowEndSaturating(Timestamp anchor, Timestamp delta) {
  return delta > 0 &&
                 anchor > std::numeric_limits<Timestamp>::max() - delta
             ? std::numeric_limits<Timestamp>::max()
             : anchor + delta;
}

std::vector<Window> ComputeProcessedWindows(const EdgeSeries& first,
                                            const EdgeSeries& last,
                                            Timestamp delta) {
  std::vector<Window> windows;
  ComputeProcessedWindows(first, last, delta, &windows);
  return windows;
}

void ComputeProcessedWindows(const EdgeSeries& first, const EdgeSeries& last,
                             Timestamp delta, std::vector<Window>* out) {
  out->clear();
  WindowScan().AdvanceToEnd(first, last, delta, out);
}

void WindowScan::AdvanceBefore(const EdgeSeries& first, const EdgeSeries& last,
                               Timestamp delta, Timestamp end_before,
                               std::vector<Window>* out) {
  // Window ends are non-decreasing in anchor order, so the anchors whose
  // windows end below end_before are a prefix of the remaining ones.
  // (A saturated end equals the maximum timestamp, which is why "no
  // bound" is AdvanceToEnd and not end_before = max.)
  const Timestamp* const times = first.times().data();
  const Timestamp* const stop = std::partition_point(
      times + anchor_idx_, times + first.size(), [&](Timestamp anchor) {
        return WindowEndSaturating(anchor, delta) < end_before;
      });
  Advance(first, last, delta, static_cast<size_t>(stop - times), out);
}

void WindowScan::AdvanceToEnd(const EdgeSeries& first, const EdgeSeries& last,
                              Timestamp delta, std::vector<Window>* out) {
  Advance(first, last, delta, first.size(), out);
}

void WindowScan::Advance(const EdgeSeries& first, const EdgeSeries& last,
                         Timestamp delta, size_t stop,
                         std::vector<Window>* out) {
  // "No window processed yet" is tracked explicitly: encoding it as
  // numeric_limits::min() sentinels collided with a legal first anchor
  // at exactly that timestamp, which was then dropped as a "duplicate"
  // and whose `anchor - 1` probe underflowed.
  bool have_processed = have_processed_;
  Timestamp prev_end = prev_end_;
  Timestamp prev_anchor = prev_anchor_;

  // One monotone cursor into R(em) replaces the per-anchor binary
  // search: before the first processed window it trails the anchor (the
  // novelty rule reduces to "any element in [anchor, end]"), afterwards
  // it sits at the first element past the previous processed end ("any
  // element in (prev_end, end]"). Anchors and window ends are both
  // non-decreasing, and prev_end >= the anchor that set it, so the
  // cursor never moves backwards when the rule switches — the whole
  // scan is O(|R(e1)| + |R(em)|).
  size_t cursor = em_cursor_;
  const size_t num_last = last.size();

  for (size_t i = anchor_idx_; i < stop; ++i) {
    const Timestamp anchor = first.time(i);
    if (have_processed && anchor == prev_anchor) {
      continue;  // duplicate anchor timestamp
    }
    const Timestamp end = WindowEndSaturating(anchor, delta);
    if (have_processed) {
      while (cursor < num_last && last.time(cursor) <= prev_end) ++cursor;
    } else {
      while (cursor < num_last && last.time(cursor) < anchor) ++cursor;
    }
    // No R(em) element remains beyond the threshold. Jump to the stop:
    // no anchor before it can produce a novel window, now or after an
    // append, since its end is below end_before and appends arrive at or
    // after it (a run to the end has no later call).
    if (cursor >= num_last) break;
    if (last.time(cursor) > end) continue;
    out->push_back(Window{anchor, end});
    prev_end = end;
    prev_anchor = anchor;
    have_processed = true;
  }

  anchor_idx_ = stop;
  em_cursor_ = cursor;
  have_processed_ = have_processed;
  prev_end_ = prev_end;
  prev_anchor_ = prev_anchor;
}

std::vector<Window> ComputeAllWindows(const EdgeSeries& first,
                                      Timestamp delta) {
  std::vector<Window> windows;
  Timestamp prev_anchor = 0;
  bool have_prev = false;
  for (size_t i = 0; i < first.size(); ++i) {
    const Timestamp anchor = first.time(i);
    if (have_prev && anchor == prev_anchor) continue;
    windows.push_back(Window{anchor, WindowEndSaturating(anchor, delta)});
    prev_anchor = anchor;
    have_prev = true;
  }
  return windows;
}

}  // namespace flowmotif
