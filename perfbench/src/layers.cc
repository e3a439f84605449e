#include "layers.h"

#include <vector>

#include "core/counter.h"
#include "core/dp.h"
#include "core/sliding_window.h"
#include "core/structural_match.h"
#include "core/topk.h"

namespace flowbench {

using namespace flowmotif;

void CoreReplay::Add(const CoreReplay& other) {
  p1_s += other.p1_s;
  window_s += other.window_s;
  p2_s += other.p2_s;
  dp_s += other.dp_s;
  matches += other.matches;
  windows += other.windows;
  instances += other.instances;
  phi_prunes += other.phi_prunes;
  domination_skips += other.domination_skips;
}

CoreReplay ReplayCore(const TimeSeriesGraph& graph, const Motif& motif,
                      const QueryOptions& options, Tracer* tracer,
                      int64_t request) {
  CoreReplay out;
  double t0 = Now();
  const std::vector<MatchBinding> matches =
      StructuralMatcher(graph, motif).FindAllMatches();
  double t1 = Now();
  tracer->Add("core.p1", t0, t1, -1, request);
  out.p1_s = t1 - t0;
  out.matches = static_cast<int64_t>(matches.size());

  // The scan P2 and DP run per match before enumerating, done alone.
  const auto first = motif.edge(0);
  const auto last = motif.edge(motif.num_edges() - 1);
  std::vector<Window> windows;
  t0 = Now();
  for (const MatchBinding& b : matches) {
    const EdgeSeries* first_series = graph.FindSeries(
        b[static_cast<size_t>(first.first)], b[static_cast<size_t>(first.second)]);
    const EdgeSeries* last_series = graph.FindSeries(
        b[static_cast<size_t>(last.first)], b[static_cast<size_t>(last.second)]);
    ComputeProcessedWindows(*first_series, *last_series, options.delta,
                            &windows);
    out.windows += static_cast<int64_t>(windows.size());
  }
  t1 = Now();
  tracer->Add("core.window", t0, t1, -1, request);
  out.window_s = t1 - t0;

  t0 = Now();
  switch (options.mode) {
    case QueryMode::kCount: {
      const InstanceCounter::Result r =
          InstanceCounter(graph, motif, options.delta, options.phi)
              .RunOnMatches(matches);
      out.instances = r.num_instances;
      break;
    }
    case QueryMode::kTopK: {
      const TopKSearcher::Result r =
          TopKSearcher(graph, motif, options.delta, options.k)
              .RunOnMatches(matches);
      out.instances = r.stats.num_instances;
      out.phi_prunes = r.stats.num_phi_prunes;
      out.domination_skips = r.stats.num_domination_skips;
      break;
    }
    case QueryMode::kTop1: {
      const MaxFlowDpSearcher::Result r =
          MaxFlowDpSearcher(graph, motif, options.delta).RunOnMatches(matches);
      out.instances = r.found ? 1 : 0;
      break;
    }
    default:
      break;
  }
  t1 = Now();
  const bool dp = options.mode == QueryMode::kTop1;
  tracer->Add(dp ? "core.dp" : "core.p2", t0, t1, -1, request);
  (dp ? out.dp_s : out.p2_s) = t1 - t0;
  return out;
}

void ReportCoreLayers(const CoreReplay& core, Report* report) {
  report->Layer("core.p1_s", core.p1_s, "s");
  report->Layer("core.p1_matches", static_cast<double>(core.matches), "count");
  report->Layer("core.window_s", core.window_s, "s");
  report->Layer("core.windows", static_cast<double>(core.windows), "count");
  report->Layer("core.p2_s", core.p2_s, "s");
  report->Layer("core.dp_s", core.dp_s, "s");
  report->Layer("core.instances", static_cast<double>(core.instances),
                "count");
  report->Layer("core.phi_prunes", static_cast<double>(core.phi_prunes),
                "count");
  report->Layer("core.domination_skips",
                static_cast<double>(core.domination_skips), "count");
  report->Layer("core.instances_per_window",
                core.windows > 0 ? static_cast<double>(core.instances) /
                                       static_cast<double>(core.windows)
                                 : 0.0,
                "ratio");
}

}  // namespace flowbench
