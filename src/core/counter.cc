#include "core/counter.h"

#include <optional>

#include "core/sliding_window.h"
#include "util/logging.h"

namespace flowmotif {

namespace {

/// Counting state for one match. The window-dependent bounds (per-level
/// admissible index ranges) live in the cursor arrays and are advanced
/// once per window; the memo starts empty in every window (BeginWindow),
/// because its entries are only valid for one window end.
struct WindowCounter {
  const std::vector<const EdgeSeries*>* series;
  const std::vector<size_t>* lo;     // per level, LowerBound(window.start)
  const std::vector<size_t>* limit;  // per level, UpperBound(window.end)
  Flow phi;
  int num_edges;
  // Maps (level, first usable element index of that level's series) to
  // the number of valid suffix instantiations.
  WindowMemo<int64_t>* memo = nullptr;
  int64_t memo_hits = 0;

  int64_t Count(int level, size_t first) {
    const EdgeSeries& s = *(*series)[static_cast<size_t>(level)];
    const size_t level_limit = (*limit)[static_cast<size_t>(level)];
    if (first >= level_limit) return 0;

    if (level == num_edges - 1) {
      // Last motif edge: one (maximal) set — everything to the window
      // end — if it clears phi.
      return s.FlowSum(first, level_limit - 1) >= phi ? 1 : 0;
    }

    if (const int64_t* memoized =
            memo->Find(static_cast<size_t>(level), first)) {
      ++memo_hits;
      return *memoized;
    }

    const EdgeSeries& next = *(*series)[static_cast<size_t>(level) + 1];
    const size_t next_size = next.size();
    int64_t total = 0;
    Flow prefix_flow = 0.0;
    // One galloping cursor replaces the per-element UpperBound(t_j) of
    // the recursion *and* the two binary searches of the old
    // HasElementInOpenClosed domination probe: t_j is non-decreasing
    // over the loop, so the first next-series element strictly after
    // t_j only ever moves forward. It starts at the next level's window
    // cursor — every element below it is before the window start, hence
    // before any t_j here.
    size_t next_after = (*lo)[static_cast<size_t>(level) + 1];
    for (size_t j = first; j < level_limit; ++j) {
      prefix_flow += s.flow(j);
      const Timestamp t_j = s.time(j);
      next_after = next.AdvanceUpperBound(next_after, t_j);
      if (j + 1 < level_limit) {
        // Prefix-domination: identical rule to the enumerator — some
        // next-edge element in (t_j, t_{j+1}].
        const Timestamp t_next = s.time(j + 1);
        if (next_after >= next_size || next.time(next_after) > t_next) {
          continue;
        }
      }
      if (prefix_flow < phi) continue;  // Algorithm 1 line 16
      total += Count(level + 1, next_after);
    }
    memo->Store(static_cast<size_t>(level), first, total);
    return total;
  }
};

}  // namespace

InstanceCounter::InstanceCounter(const TimeSeriesGraph& graph,
                                 const Motif& motif, Timestamp delta,
                                 Flow phi)
    : graph_(graph), motif_(motif), delta_(delta), phi_(phi) {
  FLOWMOTIF_CHECK_GE(delta, 0);
  FLOWMOTIF_CHECK_GE(phi, 0.0);
}

int64_t InstanceCounter::CountMatch(MatchRef binding, Result* result,
                                    WindowReader* windows,
                                    Scratch* scratch) const {
  std::optional<WindowReader> one_match;
  if (windows == nullptr) windows = &one_match.emplace(delta_);
  FLOWMOTIF_CHECK_EQ(windows->delta(), delta_)
      << "window reader at another delta than the counter's";

  // The gate: only the boundary series decide the window list, and a
  // match without windows needs nothing else.
  const int m = motif_.num_edges();
  const EdgeSeries* first = ResolveEdgeSeries(graph_, motif_, binding, 0);
  const EdgeSeries* last = ResolveEdgeSeries(graph_, motif_, binding, m - 1);
  const std::vector<Window>& match_windows = windows->Get(*first, *last);
  if (result != nullptr) {
    result->num_windows += static_cast<int64_t>(match_windows.size());
  }
  if (match_windows.empty()) return 0;

  std::optional<Scratch> one_scratch;
  if (scratch == nullptr) scratch = &one_scratch.emplace();
  ResolveMatchSeries(graph_, motif_, binding, first, last, &scratch->series);
  WindowCursorSet& cursors = scratch->cursors;
  cursors.Reset(scratch->series);

  WindowCounter counter;
  counter.series = &scratch->series;
  counter.lo = &cursors.lo_indices();
  counter.limit = &cursors.hi_indices();
  counter.phi = phi_;
  counter.num_edges = m;
  counter.memo = &scratch->memo;

  int64_t count = 0;
  for (const Window& window : match_windows) {
    cursors.AdvanceTo(window);
    scratch->memo.BeginWindow(cursors);
    count += counter.Count(0, cursors.lo(0));
  }
  if (result != nullptr) result->memo_hits += counter.memo_hits;
  return count;
}

InstanceCounter::Result InstanceCounter::RunOnMatches(
    const std::vector<MatchBinding>& matches) const {
  Result result;
  WindowReader windows(delta_);
  Scratch scratch;
  for (const MatchBinding& binding : matches) {
    ++result.num_structural_matches;
    result.num_instances += CountMatch(binding, &result, &windows, &scratch);
  }
  return result;
}

InstanceCounter::Result InstanceCounter::Run() const {
  StructuralMatcher matcher(graph_, motif_);
  return RunOnMatches(matcher.FindAllMatches());
}

}  // namespace flowmotif
