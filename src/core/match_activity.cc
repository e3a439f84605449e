#include "core/match_activity.h"

#include <algorithm>
#include <limits>

#include "core/structural_match.h"
#include "util/logging.h"

namespace flowmotif {

MatchActivityAnalyzer::MatchActivityAnalyzer(const TimeSeriesGraph& graph,
                                             const Motif& motif,
                                             const EnumerationOptions& options)
    : graph_(graph), motif_(motif), options_(options) {}

std::vector<MatchActivityAnalyzer::MatchActivity>
MatchActivityAnalyzer::TopMatches(int64_t top_n) const {
  FLOWMOTIF_CHECK_GE(top_n, 0);
  FlowMotifEnumerator enumerator(graph_, motif_, options_);
  SharedWindowCache::Reader windows = enumerator.NewReader();
  StructuralMatcher matcher(graph_, motif_);

  std::vector<MatchActivity> activities;
  matcher.FindAll([&](const MatchBinding& binding) {
    MatchActivity activity;
    activity.binding = binding;
    activity.first_window_start = std::numeric_limits<Timestamp>::max();
    activity.last_window_start = std::numeric_limits<Timestamp>::min();

    EnumerationResult scratch;
    enumerator.EnumerateMatch(
        binding,
        [&activity](const InstanceView& view) {
          ++activity.instance_count;
          activity.max_instance_flow =
              std::max(activity.max_instance_flow, view.flow);
          activity.total_instance_flow += view.flow;
          activity.first_window_start =
              std::min(activity.first_window_start, view.window.start);
          activity.last_window_start =
              std::max(activity.last_window_start, view.window.start);
          return true;
        },
        &scratch, &windows);
    if (activity.instance_count > 0) {
      activities.push_back(std::move(activity));
    }
    return true;
  });

  std::sort(activities.begin(), activities.end(),
            [](const MatchActivity& a, const MatchActivity& b) {
              if (a.instance_count != b.instance_count) {
                return a.instance_count > b.instance_count;
              }
              if (a.total_instance_flow != b.total_instance_flow) {
                return a.total_instance_flow > b.total_instance_flow;
              }
              return a.binding < b.binding;
            });
  if (top_n > 0 && static_cast<int64_t>(activities.size()) > top_n) {
    activities.resize(static_cast<size_t>(top_n));
  }
  return activities;
}

MatchActivityAnalyzer::TimelineHistogram MatchActivityAnalyzer::Timeline(
    Timestamp bucket_width) const {
  FLOWMOTIF_CHECK_GT(bucket_width, 0);
  TimelineHistogram histogram;
  histogram.bucket_width = bucket_width;

  const TimeSeriesGraph::Stats stats = graph_.ComputeStats();
  histogram.origin = stats.min_time;
  const Timestamp span = stats.max_time - stats.min_time;
  const size_t num_buckets =
      static_cast<size_t>(span / bucket_width) + 1;
  histogram.counts.assign(num_buckets, 0);

  FlowMotifEnumerator enumerator(graph_, motif_, options_);
  enumerator.Run([&histogram](const InstanceView& view) {
    const size_t bucket = static_cast<size_t>(
        (view.window.start - histogram.origin) / histogram.bucket_width);
    if (bucket < histogram.counts.size()) ++histogram.counts[bucket];
    return true;
  });
  return histogram;
}

}  // namespace flowmotif
