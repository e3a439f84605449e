#include "core/enumerator.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "util/logging.h"
#include "util/timer.h"

namespace flowmotif {

MotifInstance InstanceView::Materialize() const {
  MotifInstance instance;
  instance.binding = binding.ToBinding();
  instance.edge_sets.resize(slices->size());
  for (size_t i = 0; i < slices->size(); ++i) {
    const EdgeSlice& slice = (*slices)[i];
    auto& set = instance.edge_sets[i];
    set.reserve(slice.size());
    for (size_t j = slice.begin; j < slice.end; ++j) {
      set.push_back(slice.series->at(j));
    }
  }
  return instance;
}

/// Per-run mutable state threaded through the recursion.
struct FlowMotifEnumerator::Context {
  std::vector<const EdgeSeries*> series;  // per motif edge, this match
  std::vector<EdgeSlice> slices;          // current partial assignment
  Window window{0, 0};
  Flow min_flow_so_far = 0.0;  // min prefix flow over slices chosen so far
  MatchRef binding{nullptr, 0};
  const InstanceVisitor* visitor = nullptr;
  EnumerationResult* result = nullptr;
  bool stop = false;
  bool window_is_redundant = false;  // ablation_no_window_skip bookkeeping

  // Per-window series bounds, precomputed once per window instead of one
  // UpperBound per Recurse call: level_limit[k] = UpperBound(window.end)
  // on the k-th edge's series, level0_first = LowerBound(window.start) on
  // the first. Window starts/ends are non-decreasing across a match, so
  // AdvanceToWindow slides monotone galloping cursors (O(log gap) per
  // window).
  std::vector<size_t> level_limit;
  size_t level0_first = 0;

  /// The per-match frame: the match's series, one slice and one cursor
  /// per motif edge.
  Context(const TimeSeriesGraph& graph, const Motif& motif, MatchRef b,
          const InstanceVisitor& v, EnumerationResult* r)
      : slices(static_cast<size_t>(motif.num_edges())),
        binding(b),
        visitor(&v),
        result(r),
        level_limit(static_cast<size_t>(motif.num_edges()), 0) {
    ResolveMatchSeries(graph, motif, binding, &series);
  }

  void AdvanceToWindow(const Window& w) {
    window = w;
    level0_first = series[0]->AdvanceLowerBound(level0_first, w.start);
    for (size_t k = 0; k < series.size(); ++k) {
      level_limit[k] = series[k]->AdvanceUpperBound(level_limit[k], w.end);
    }
  }
};

FlowMotifEnumerator::FlowMotifEnumerator(const TimeSeriesGraph& graph,
                                         const Motif& motif,
                                         const EnumerationOptions& options)
    : graph_(graph), motif_(motif), options_(options) {
  FLOWMOTIF_CHECK_GE(options.delta, 0) << "delta must be non-negative";
  FLOWMOTIF_CHECK_GE(options.phi, 0.0) << "phi must be non-negative";
}

bool FlowMotifEnumerator::PassesFlowBound(Flow flow) const {
  if (flow < options_.phi) return false;
  if (options_.dynamic_min_flow_exclusive &&
      !(flow > options_.dynamic_min_flow_exclusive())) {
    return false;
  }
  return true;
}

void FlowMotifEnumerator::Emit(Context* ctx, Flow instance_flow) const {
  if (options_.ablation_no_prefix_phi_pruning &&
      !PassesFlowBound(instance_flow)) {
    // Deferred flow constraint: with prefix pruning ablated, phi is only
    // enforced here on complete instances.
    ++ctx->result->num_phi_prunes;
    return;
  }
  InstanceView view;
  view.motif = &motif_;
  view.binding = ctx->binding;
  view.slices = &ctx->slices;
  view.window = ctx->window;
  view.flow = instance_flow;

  if (options_.strict_maximality) {
    MotifInstance materialized = view.Materialize();
    if (!IsMaximalInstance(graph_, motif_, materialized, options_.delta)) {
      ++ctx->result->num_strict_rejects;
      return;
    }
  }
  ++ctx->result->num_instances;
  if (ctx->window_is_redundant) ++ctx->result->num_redundant_instances;
  if (ctx->visitor != nullptr && *ctx->visitor) {
    if (!(*ctx->visitor)(view)) ctx->stop = true;
  }
}

void FlowMotifEnumerator::Recurse(Context* ctx, int level,
                                  Timestamp lo) const {
  const EdgeSeries& series = *ctx->series[static_cast<size_t>(level)];
  // Edge-set candidates for this level: the run of elements strictly
  // after the previous level's split (or from the window anchor for e1),
  // capped by the window end. The window-dependent bounds come from the
  // per-window cursors in the context; only the split-dependent lower
  // bound still needs a search.
  const size_t first = level == 0 ? ctx->level0_first
                                  : series.UpperBound(lo);
  const size_t limit = ctx->level_limit[static_cast<size_t>(level)];
  if (first >= limit) return;

  const int m = motif_.num_edges();
  if (level == m - 1) {
    // Last motif edge: Algorithm 1's base case takes every element in the
    // remaining window, which makes the set maximal towards the window
    // end.
    const Flow flow = series.FlowSum(first, limit - 1);
    if (!options_.ablation_no_prefix_phi_pruning && !PassesFlowBound(flow)) {
      ++ctx->result->num_phi_prunes;
      return;
    }
    ctx->slices[static_cast<size_t>(level)] = EdgeSlice{&series, first, limit};
    Emit(ctx, std::min(ctx->min_flow_so_far, flow));
    return;
  }

  const EdgeSeries& next_series = *ctx->series[static_cast<size_t>(level) + 1];
  Flow prefix_flow = 0.0;
  for (size_t j = first; j < limit && !ctx->stop; ++j) {
    prefix_flow += series.flow(j);
    const Timestamp t_j = series.time(j);
    if (j + 1 < limit) {
      // Prefix-domination rule: stopping the edge-set at t_j only yields
      // maximal instances if the next motif edge has an element before
      // (or at) the next element of this edge — otherwise the longer
      // prefix produces a superset instance with identical downstream
      // choices (the paper's "no instance contains just the first two
      // elements of e1" example).
      const Timestamp t_next = series.time(j + 1);
      if (!next_series.HasElementInOpenClosed(t_j, t_next)) {
        ++ctx->result->num_domination_skips;
        continue;
      }
    }
    if (!options_.ablation_no_prefix_phi_pruning &&
        !PassesFlowBound(prefix_flow)) {
      // Algorithm 1 line 16: prefixes failing phi cannot start a valid
      // instance; prune the whole subtree under this prefix.
      ++ctx->result->num_phi_prunes;
      continue;
    }
    ctx->slices[static_cast<size_t>(level)] = EdgeSlice{&series, first, j + 1};
    const Flow saved_min = ctx->min_flow_so_far;
    ctx->min_flow_so_far = std::min(saved_min, prefix_flow);
    Recurse(ctx, level + 1, t_j);
    ctx->min_flow_so_far = saved_min;
  }
}

WindowReader FlowMotifEnumerator::NewReader() const {
  return WindowReader(options_.delta, options_.query_control);
}

bool FlowMotifEnumerator::EnumerateMatch(MatchRef binding,
                                         const InstanceVisitor& visitor,
                                         EnumerationResult* result,
                                         WindowReader* windows) const {
  Context ctx(graph_, motif_, binding, visitor, result);
  // The match's processed-window list; the reader keeps it valid for
  // the whole sweep below (the visitor never reads through it).
  std::optional<WindowReader> one_match;
  if (windows == nullptr) windows = &one_match.emplace(NewReader());
  const std::vector<Window>& processed =
      windows->Get(*ctx.series.front(), *ctx.series.back());
  if (!options_.ablation_no_window_skip) {
    return SweepWindows(&ctx, processed.data(),
                        processed.data() + processed.size(), nullptr);
  }
  // Ablation: run every anchor position; remember which ones the skip
  // rule would have processed so redundant emissions can be counted.
  const std::vector<Window> all_windows =
      ComputeAllWindows(*ctx.series.front(), options_.delta);
  return SweepWindows(&ctx, all_windows.data(),
                      all_windows.data() + all_windows.size(), &processed);
}

bool FlowMotifEnumerator::EnumerateMatchWindows(
    MatchRef binding, const Window* windows_begin,
    const Window* windows_end, const InstanceVisitor& visitor,
    EnumerationResult* result) const {
  Context ctx(graph_, motif_, binding, visitor, result);
  return SweepWindows(&ctx, windows_begin, windows_end, nullptr);
}

bool FlowMotifEnumerator::SweepWindows(
    Context* ctx, const Window* begin, const Window* end,
    const std::vector<Window>* processed) const {
  ctx->result->num_windows_processed += static_cast<int64_t>(end - begin);
  size_t processed_cursor = 0;
  for (const Window* window = begin; window != end && !ctx->stop; ++window) {
    if (processed != nullptr) {
      while (processed_cursor < processed->size() &&
             (*processed)[processed_cursor].start < window->start) {
        ++processed_cursor;
      }
      ctx->window_is_redundant = processed_cursor >= processed->size() ||
                                 !((*processed)[processed_cursor] == *window);
    }
    ctx->AdvanceToWindow(*window);
    ctx->min_flow_so_far = std::numeric_limits<Flow>::infinity();
    Recurse(ctx, 0, window->start);
  }
  return !ctx->stop;
}

EnumerationResult FlowMotifEnumerator::Run(
    const InstanceVisitor& visitor) const {
  EnumerationResult result;
  WallTimer total_timer;
  double phase2_seconds = 0.0;

  WindowReader windows = NewReader();
  StructuralMatcher matcher(graph_, motif_);
  matcher.FindAll([&](const MatchBinding& binding) {
    ++result.num_structural_matches;
    WallTimer p2_timer;
    const bool keep_going =
        EnumerateMatch(binding, visitor, &result, &windows);
    phase2_seconds += p2_timer.ElapsedSeconds();
    return keep_going;
  });

  result.phase2_seconds = phase2_seconds;
  result.phase1_seconds =
      std::max(0.0, total_timer.ElapsedSeconds() - phase2_seconds);
  return result;
}

EnumerationResult FlowMotifEnumerator::RunOnMatches(
    const std::vector<MatchBinding>& matches,
    const InstanceVisitor& visitor) const {
  EnumerationResult result;
  WallTimer timer;
  WindowReader windows = NewReader();
  for (const MatchBinding& binding : matches) {
    ++result.num_structural_matches;
    if (!EnumerateMatch(binding, visitor, &result, &windows)) break;
  }
  result.phase2_seconds = timer.ElapsedSeconds();
  return result;
}

std::vector<MotifInstance> FlowMotifEnumerator::CollectAll() const {
  std::vector<MotifInstance> instances;
  Run([&instances](const InstanceView& view) {
    instances.push_back(view.Materialize());
    return true;
  });
  return instances;
}

}  // namespace flowmotif
