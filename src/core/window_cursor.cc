#include "core/window_cursor.h"

#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace flowmotif {

const std::vector<Window>& WindowReader::Get(const EdgeSeries& first,
                                             const EdgeSeries& last) {
  ComputeProcessedWindows(first, last, delta_, &windows_);
  if (charge_ != nullptr && !windows_.empty()) {
    charge_->ChargeWindowElements(static_cast<int64_t>(windows_.size()),
                                  failpoint::kCacheWindows);
  }
  return windows_;
}

const EdgeSeries* ResolveEdgeSeries(const TimeSeriesGraph& graph,
                                    const Motif& motif, MatchRef binding,
                                    int edge) {
  const auto [src, dst] = motif.edge(edge);
  const EdgeSeries* s = graph.FindSeries(binding[static_cast<size_t>(src)],
                                         binding[static_cast<size_t>(dst)]);
  FLOWMOTIF_CHECK(s != nullptr)
      << "binding is not a structural match of " << motif.name();
  return s;
}

void ResolveMatchSeries(const TimeSeriesGraph& graph, const Motif& motif,
                        MatchRef binding, const EdgeSeries* first,
                        const EdgeSeries* last,
                        std::vector<const EdgeSeries*>* series) {
  const int m = motif.num_edges();
  series->resize(static_cast<size_t>(m));
  series->front() = first;
  series->back() = last;
  for (int i = 1; i < m - 1; ++i) {
    (*series)[static_cast<size_t>(i)] =
        ResolveEdgeSeries(graph, motif, binding, i);
  }
}

void UnionTimeline::Build(const std::vector<const EdgeSeries*>& series,
                          const WindowCursorSet& cursors) {
  const size_t m = series.size();
  times_.clear();
  heads_.assign(cursors.lo_indices().begin(), cursors.lo_indices().end());
  while (true) {
    Timestamp next = 0;
    bool any = false;
    for (size_t k = 0; k < m; ++k) {
      if (heads_[k] >= cursors.hi(k)) continue;
      const Timestamp t = series[k]->time(heads_[k]);
      if (!any || t < next) {
        next = t;
        any = true;
      }
    }
    if (!any) break;
    times_.push_back(next);
    for (size_t k = 0; k < m; ++k) {
      while (heads_[k] < cursors.hi(k) &&
             series[k]->time(heads_[k]) == next) {
        ++heads_[k];
      }
    }
  }
}

void TimelineOffsets::Build(const std::vector<const EdgeSeries*>& series,
                            const WindowCursorSet& cursors,
                            const UnionTimeline& timeline) {
  const size_t m = series.size();
  tau_ = timeline.size();
  lower_.resize(m * tau_);
  upper_.resize(m * tau_);
  for (size_t k = 0; k < m; ++k) {
    const std::vector<Timestamp>& times = series[k]->times();
    const size_t series_end = cursors.hi(k);
    size_t lower = cursors.lo(k);
    size_t upper = cursors.lo(k);
    size_t* lower_row = lower_.data() + k * tau_;
    size_t* upper_row = upper_.data() + k * tau_;
    for (size_t i = 0; i < tau_; ++i) {
      const Timestamp t = timeline[i];
      while (lower < series_end && times[lower] < t) ++lower;
      lower_row[i] = lower;
      if (upper < lower) upper = lower;
      while (upper < series_end && times[upper] <= t) ++upper;
      upper_row[i] = upper;
    }
  }
}

}  // namespace flowmotif
