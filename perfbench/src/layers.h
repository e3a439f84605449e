// Direct calls into the core layer, made by traced runs outside the timed
// phase so that core, engine and serve self times can be told apart from
// outside the library.
#ifndef FLOWBENCH_LAYERS_H_
#define FLOWBENCH_LAYERS_H_

#include <cstdint>

#include "common.h"
#include "core/motif.h"
#include "engine/query_options.h"
#include "graph/time_series_graph.h"

namespace flowbench {

/// Times and counts of one query's phases, each run by its own call.
struct CoreReplay {
  double p1_s = 0.0;      // StructuralMatcher::FindAllMatches
  double window_s = 0.0;  // ComputeProcessedWindows over every match
  double p2_s = 0.0;      // InstanceCounter / TopKSearcher ::RunOnMatches
  double dp_s = 0.0;      // MaxFlowDpSearcher::RunOnMatches
  int64_t matches = 0;
  int64_t windows = 0;
  int64_t instances = 0;
  int64_t phi_prunes = 0;
  int64_t domination_skips = 0;

  void Add(const CoreReplay& other);
};

/// Runs P1, the window scan and the mode's P2 (kCount, kTopK) or DP
/// (kTop1) for one query on `graph`, recording spans core.p1,
/// core.window, core.p2 / core.dp under `request`.
CoreReplay ReplayCore(const flowmotif::TimeSeriesGraph& graph,
                      const flowmotif::Motif& motif,
                      const flowmotif::QueryOptions& options, Tracer* tracer,
                      int64_t request);

/// Reports the core.* per-layer metrics of a summed replay.
void ReportCoreLayers(const CoreReplay& core, Report* report);

}  // namespace flowbench

#endif  // FLOWBENCH_LAYERS_H_
