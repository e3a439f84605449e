// Micro-benchmarks of the phase-P2 sliding-window DP hot path
// (core/dp.cc): RunOnMatches over precomputed structural matches, so
// only the per-window work — admissible bound, union timeline, DP table
// fill, traceback — is on the clock.
//
// Two synthetic presets stress the per-window cost directly:
//  * dense_path — a directed ring whose edges all carry `kPerEdge`
//    interactions; every match of the path motif M(4,3) slides ~kPerEdge
//    windows whose union timelines grow with delta (tau ~ 3 * kPerEdge *
//    delta / span). This is the preset the perf trajectory tracks.
//  * fanout — a hub with `kLeaves` out-edges; the general motif 0>1,0>2
//    exercises the same DP on per-first-edge matches.
//
// A delta sweep scales the per-window timeline length tau.
// BM_MatchWindowGate times the other end: the per-match gate that every
// P2 evaluator runs before any set-up, over a sparse bitcoin-like match
// list where most matches have no window. Run with
//   bench_dp_window --benchmark_format=json
// to emit the JSON consumed by the CI perf-smoke step; the repo root's
// BENCH_baseline.json is the committed first point of the trajectory
// (generated on the reference container before the incremental-cursor
// rewrite of the DP).
#include <benchmark/benchmark.h>

#include <vector>

#include "core/dp.h"
#include "core/match_list.h"
#include "core/motif_catalog.h"
#include "core/sliding_window.h"
#include "core/structural_match.h"
#include "core/window_cursor.h"
#include "gen/presets.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "util/logging.h"
#include "util/random.h"

namespace flowmotif {
namespace {

constexpr Timestamp kSpan = 1000000;  // event horizon of both presets
constexpr int kPerEdge = 1200;        // interactions per topology edge

/// Evenly spreads `per_edge` jittered interactions over [0, span).
void FillEdge(InteractionGraph* g, VertexId src, VertexId dst,
              int per_edge, Rng* rng) {
  const Timestamp slot = kSpan / per_edge;
  for (int i = 0; i < per_edge; ++i) {
    const Timestamp t =
        slot * i + static_cast<Timestamp>(rng->NextBounded(
                       static_cast<uint64_t>(slot)));
    const Flow f = rng->UniformDouble(0.5, 10.0);
    const Status s = g->AddEdge(src, dst, t, f);
    FLOWMOTIF_CHECK(s.ok()) << s.ToString();
  }
}

/// Directed ring 0 -> 1 -> ... -> kRingSize-1 -> 0, every edge dense.
const TimeSeriesGraph& DenseRingGraph() {
  static const TimeSeriesGraph* graph = [] {
    constexpr int kRingSize = 8;
    InteractionGraph g;
    Rng rng(7);
    for (VertexId v = 0; v < kRingSize; ++v) {
      FillEdge(&g, v, (v + 1) % kRingSize, kPerEdge, &rng);
    }
    return new TimeSeriesGraph(TimeSeriesGraph::Build(g));
  }();
  return *graph;
}

/// Hub 0 with dense out-edges to leaves 1..kLeaves.
const TimeSeriesGraph& FanoutGraph() {
  static const TimeSeriesGraph* graph = [] {
    constexpr int kLeaves = 5;
    InteractionGraph g;
    Rng rng(13);
    for (VertexId leaf = 1; leaf <= kLeaves; ++leaf) {
      FillEdge(&g, 0, leaf, kPerEdge, &rng);
    }
    return new TimeSeriesGraph(TimeSeriesGraph::Build(g));
  }();
  return *graph;
}

/// One RunOnMatches pass per iteration; matches precomputed so the
/// benchmark isolates P2.
void RunDpBenchmark(benchmark::State& state, const TimeSeriesGraph& graph,
                    const Motif& motif) {
  const Timestamp delta = state.range(0);
  const StructuralMatcher matcher(graph, motif);
  const std::vector<MatchBinding> matches = matcher.FindAllMatches();
  FLOWMOTIF_CHECK(!matches.empty());
  const MaxFlowDpSearcher searcher(graph, motif, delta);

  int64_t windows = 0;
  for (auto _ : state) {
    const MaxFlowDpSearcher::Result result = searcher.RunOnMatches(matches);
    benchmark::DoNotOptimize(result.max_flow);
    windows = result.num_windows;
  }
  state.counters["matches"] =
      benchmark::Counter(static_cast<double>(matches.size()));
  state.counters["windows"] = benchmark::Counter(static_cast<double>(windows));
  state.counters["windows/s"] = benchmark::Counter(
      static_cast<double>(windows) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_DpWindow_DensePath(benchmark::State& state) {
  RunDpBenchmark(state, DenseRingGraph(), *MotifCatalog::ByName("M(4,3)"));
}
BENCHMARK(BM_DpWindow_DensePath)
    ->Arg(2000)
    ->Arg(10000)
    ->Arg(30000)
    ->Unit(benchmark::kMillisecond);

void BM_DpWindow_Fanout(benchmark::State& state) {
  RunDpBenchmark(state, FanoutGraph(), *Motif::Parse("0>1,0>2", "fanout"));
}
BENCHMARK(BM_DpWindow_Fanout)
    ->Arg(2000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// Single-match per-window mode: tau grows with delta, no cross-match
/// amortization — the purest view of the per-window constant factor.
void BM_DpWindow_PerWindow(benchmark::State& state) {
  const Timestamp delta = state.range(0);
  const TimeSeriesGraph& graph = DenseRingGraph();
  const Motif motif = *MotifCatalog::ByName("M(4,3)");
  const StructuralMatcher matcher(graph, motif);
  const std::vector<MatchBinding> matches = matcher.FindAllMatches();
  const MaxFlowDpSearcher searcher(graph, motif, delta);
  for (auto _ : state) {
    const std::vector<MaxFlowDpSearcher::WindowBest> bests =
        searcher.RunPerWindow(matches.front());
    benchmark::DoNotOptimize(bests.data());
  }
}
BENCHMARK(BM_DpWindow_PerWindow)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// The window-position scan alone (ComputeProcessedWindows): the
/// two-pointer rewrite's target.
void BM_ComputeProcessedWindows(benchmark::State& state) {
  const Timestamp delta = state.range(0);
  const TimeSeriesGraph& graph = DenseRingGraph();
  const Motif motif = *MotifCatalog::ByName("M(4,3)");
  const StructuralMatcher matcher(graph, motif);
  const std::vector<MatchBinding> matches = matcher.FindAllMatches();
  const MatchBinding& binding = matches.front();
  const EdgeSeries* first = graph.FindSeries(binding[0], binding[1]);
  const EdgeSeries* last = graph.FindSeries(binding[2], binding[3]);
  FLOWMOTIF_CHECK(first != nullptr && last != nullptr);
  for (auto _ : state) {
    const std::vector<Window> windows =
        ComputeProcessedWindows(*first, *last, delta);
    benchmark::DoNotOptimize(windows.data());
  }
}
BENCHMARK(BM_ComputeProcessedWindows)
    ->Arg(2000)
    ->Arg(30000)
    ->Unit(benchmark::kMicrosecond);

/// The per-match gate of every P2 evaluator over one whole match list:
/// per match, the two boundary ResolveEdgeSeries calls and one
/// WindowReader::Get — the list of M(4,4)C on bitcoin x1 at the preset's
/// delta, where about 2% of the matches have a window. Timing a whole
/// list per iteration resolves changes that one ~4 us scan
/// (BM_ComputeProcessedWindows) cannot.
void BM_MatchWindowGate(benchmark::State& state) {
  static const TimeSeriesGraph* const graph = new TimeSeriesGraph(
      GenerateDataset(GetPreset(DatasetKind::kBitcoin), 1.0));
  const Motif motif = *MotifCatalog::ByName("M(4,4)C");
  static const MatchList* const matches = new MatchList(MatchList::FromBindings(
      StructuralMatcher(*graph, motif).FindAllMatches(), motif.num_nodes()));
  const int last = motif.num_edges() - 1;
  WindowReader windows(GetPreset(DatasetKind::kBitcoin).default_delta);
  int64_t with_windows = 0;
  for (auto _ : state) {
    with_windows = 0;
    for (int64_t i = 0; i < matches->size(); ++i) {
      const MatchRef match = (*matches)[i];
      const EdgeSeries* first = ResolveEdgeSeries(*graph, motif, match, 0);
      const EdgeSeries* last_series =
          ResolveEdgeSeries(*graph, motif, match, last);
      if (!windows.Get(*first, *last_series).empty()) ++with_windows;
    }
    benchmark::DoNotOptimize(with_windows);
  }
  state.counters["matches"] =
      benchmark::Counter(static_cast<double>(matches->size()));
  state.counters["with_windows"] =
      benchmark::Counter(static_cast<double>(with_windows));
}
BENCHMARK(BM_MatchWindowGate)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace flowmotif

BENCHMARK_MAIN();
