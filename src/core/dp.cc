#include "core/dp.h"

#include <algorithm>
#include <limits>

#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/timer.h"

namespace flowmotif {

MaxFlowDpSearcher::MaxFlowDpSearcher(const TimeSeriesGraph& graph,
                                     const Motif& motif, Timestamp delta)
    : graph_(graph), motif_(motif), delta_(delta) {
  FLOWMOTIF_CHECK_GE(delta, 0);
}

void MaxFlowDpSearcher::CheckScratch(Scratch* scratch,
                                     QueryControl* control) const {
  if (scratch->bound_graph == nullptr) {
    scratch->bound_graph = &graph_;
    scratch->bound_delta = delta_;
    scratch->windows.emplace(delta_, control);
    return;
  }
  // Cursor state and buffers are per-run, but guarding the binding
  // keeps a Scratch from silently crossing graphs, deltas or the query
  // its window reader charges.
  FLOWMOTIF_CHECK(scratch->bound_graph == &graph_ &&
                  scratch->bound_delta == delta_ &&
                  scratch->windows->charge() == control)
      << "DP Scratch reused across a different graph, delta or control";
}

const std::vector<Window>& MaxFlowDpSearcher::BeginMatch(
    MatchRef binding, Scratch* scratch) const {
  // The gate: only the boundary series decide the window list, and a
  // match without windows needs nothing else.
  const int m = motif_.num_edges();
  const EdgeSeries* first = ResolveEdgeSeries(graph_, motif_, binding, 0);
  const EdgeSeries* last = ResolveEdgeSeries(graph_, motif_, binding, m - 1);
  const std::vector<Window>& windows = scratch->windows->Get(*first, *last);
  if (windows.empty()) return windows;

  ResolveMatchSeries(graph_, motif_, binding, first, last, &scratch->series);
  // Window cursors restart from the series fronts for every match; they
  // only ever move forward within one match's window sweep.
  scratch->cursors.Reset(scratch->series);
  return windows;
}

Flow MaxFlowDpSearcher::DpOverWindow(MatchRef binding, const Window& window,
                                     Scratch* scratch, Result* result) const {
  const size_t m = static_cast<size_t>(motif_.num_edges());
  const std::vector<const EdgeSeries*>& series = scratch->series;

  // Slide the per-series cursors to this window. Galloping advances
  // cost O(log gap) in the distance moved — near-constant for
  // overlapping consecutive windows, never worse than a binary search
  // for a first window deep into the series.
  WindowCursorSet& cursors = scratch->cursors;
  cursors.AdvanceTo(window);

  // Admissible window bound: no instance can beat the minimum over motif
  // edges of the edge's total flow inside the window — an O(1)
  // prefix-sum subtraction on the cursor range. Once a good incumbent
  // exists, most windows are skipped without running the DP.
  {
    Flow bound = std::numeric_limits<Flow>::infinity();
    for (size_t k = 0; k < m; ++k) {
      bound = std::min(bound, series[k]->FlowInIndexRange(cursors.lo(k),
                                                          cursors.hi(k)));
    }
    if (bound <= result->max_flow) return 0.0;
  }

  // Union timeline t1..t_tau (k-way merge into the reusable buffer).
  UnionTimeline& timeline = scratch->timeline;
  timeline.Build(series, cursors);
  const size_t tau = timeline.size();
  if (tau == 0) return 0.0;

  // Per-series timeline offsets: one monotone sweep per row makes every
  // flow([tj,ti],k) in the DP below an O(1) prefix-sum subtraction.
  TimelineOffsets& offsets = scratch->offsets;
  offsets.Build(series, cursors, timeline);

  // Flow([t1, t_i], k) as rows of one flat m x tau table (row stride
  // tau); `choice` records the argmax split j of Eq. 2 for the traceback
  // (0 means "none/invalid"). A flow of 0 marks an invalid state: all
  // real flows are positive.
  std::vector<Flow>& flow_table = scratch->flow_table;
  std::vector<size_t>& choice = scratch->choice;
  flow_table.assign(m * tau, 0.0);
  choice.assign(m * tau, 0);

  {
    const EdgeSeries& s0 = *series[0];
    const size_t first0 = offsets.lower(0, 0);  // LowerBound of t1 in R(e1)
    const size_t* upper_row = offsets.upper_row(0);
    Flow* row = flow_table.data();
    for (size_t i = 0; i < tau; ++i) {
      row[i] = s0.FlowInIndexRange(first0, upper_row[i]);
    }
  }
  for (size_t k = 1; k < m; ++k) {
    const EdgeSeries& sk = *series[k];
    const Flow* prev_row = flow_table.data() + (k - 1) * tau;
    Flow* row = flow_table.data() + k * tau;
    size_t* row_choice = choice.data() + k * tau;
    const size_t* lower_row = offsets.lower_row(k);
    const size_t* upper_row = offsets.upper_row(k);
    for (size_t i = 1; i < tau; ++i) {
      const size_t upper_i = upper_row[i];
      // Eq. 2 is max_j min(L(j), R(j)) where L(j) = Flow([t1,t_{j-1}],k-1)
      // is non-decreasing in j (larger window, more options) and
      // R(j) = flow([tj,ti],k) is non-increasing (smaller interval). The
      // maximum therefore sits at the crossing, found by binary search —
      // O(log tau) O(1)-probes per cell instead of the naive O(tau) scan.
      size_t lo_j = 1;
      size_t hi_j = i;
      while (lo_j < hi_j) {
        const size_t mid = (lo_j + hi_j) / 2;
        if (prev_row[mid - 1] >=
            sk.FlowInIndexRange(lower_row[mid], upper_i)) {
          hi_j = mid;
        } else {
          lo_j = mid + 1;
        }
      }
      Flow best = 0.0;
      size_t best_j = 0;
      for (size_t j : {lo_j, lo_j - 1}) {
        if (j < 1 || j > i) continue;
        const Flow value =
            std::min(prev_row[j - 1],
                     sk.FlowInIndexRange(lower_row[j], upper_i));
        if (value > best) {
          best = value;
          best_j = j;
        }
      }
      row[i] = best;
      row_choice[i] = best_j;
    }
  }

  const Flow window_best = flow_table[(m - 1) * tau + (tau - 1)];
  if (window_best <= 0.0 || window_best <= result->max_flow) {
    return window_best;
  }

  // New global best: reconstruct the argmax instance by walking the
  // recorded splits backwards (Table 2's bold cells). The offset rows
  // already hold every series bound the traceback needs.
  MotifInstance instance;
  instance.binding = binding.ToBinding();
  instance.edge_sets.assign(m, {});
  size_t i = tau - 1;
  for (size_t k = m - 1; k >= 1; --k) {
    const size_t j = choice[k * tau + i];
    FLOWMOTIF_CHECK_GT(j, 0u);
    const EdgeSeries& sk = *series[k];
    auto& set = instance.edge_sets[k];
    const size_t first = offsets.lower(k, j);
    const size_t limit = offsets.upper(k, i);
    for (size_t idx = first; idx < limit; ++idx) set.push_back(sk.at(idx));
    i = j - 1;
  }
  {
    const EdgeSeries& s0 = *series[0];
    auto& set = instance.edge_sets[0];
    const size_t first = offsets.lower(0, 0);
    const size_t limit = offsets.upper(0, i);
    for (size_t idx = first; idx < limit; ++idx) set.push_back(s0.at(idx));
  }

  result->found = true;
  result->max_flow = window_best;
  result->binding = instance.binding;
  result->best = std::move(instance);
  result->window = window;
  return window_best;
}

MaxFlowDpSearcher::Result MaxFlowDpSearcher::RunOnMatch(
    MatchRef binding) const {
  Result result;
  WallTimer timer;
  Scratch scratch;
  CheckScratch(&scratch, /*control=*/nullptr);
  const std::vector<Window>& windows = BeginMatch(binding, &scratch);
  result.num_windows = static_cast<int64_t>(windows.size());
  for (const Window& window : windows) {
    DpOverWindow(binding, window, &scratch, &result);
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

MaxFlowDpSearcher::Result MaxFlowDpSearcher::RunOnMatches(
    const std::vector<MatchBinding>& matches) const {
  const MatchList list = MatchList::FromBindings(matches, motif_.num_nodes());
  Scratch scratch;
  return RunOnMatches(list, 0, list.size(), &scratch);
}

MaxFlowDpSearcher::Result MaxFlowDpSearcher::RunOnMatches(
    const MatchList& matches, int64_t begin, int64_t end, Scratch* scratch,
    QueryControl* control) const {
  Result result;
  WallTimer timer;
  CheckScratch(scratch, control);
  for (int64_t i = begin; i < end; ++i) {
    if (control != nullptr && control->CheckAt(failpoint::kDpMatch)) break;
    const MatchRef binding = matches[i];
    const std::vector<Window>& windows = BeginMatch(binding, scratch);
    result.num_windows += static_cast<int64_t>(windows.size());
    for (const Window& window : windows) {
      DpOverWindow(binding, window, scratch, &result);
    }
    ++result.matches_processed;
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

MaxFlowDpSearcher::Result MaxFlowDpSearcher::Run() const {
  StructuralMatcher matcher(graph_, motif_);
  return RunOnMatches(matcher.FindAllMatches());
}

std::vector<MaxFlowDpSearcher::WindowBest> MaxFlowDpSearcher::RunPerWindow(
    MatchRef binding) const {
  Scratch scratch;
  CheckScratch(&scratch, /*control=*/nullptr);
  const std::vector<Window>& windows = BeginMatch(binding, &scratch);
  std::vector<WindowBest> bests;
  bests.reserve(windows.size());
  for (const Window& window : windows) {
    // A throwaway result isolates each window's optimum.
    Result window_result;
    const Flow flow = DpOverWindow(binding, window, &scratch, &window_result);
    bests.push_back(WindowBest{window, flow > 0.0, flow});
  }
  return bests;
}

}  // namespace flowmotif
