// Google-benchmark microbenchmarks of the core building blocks:
//  * EdgeSeries range-flow queries — prefix sums vs a naive scan (the
//    data-structure ablation behind Eq. 2's O(1) flow([tj,ti],k));
//  * structural matching throughput (phase P1);
//  * window computation (the sliding/skip logic);
//  * phase P2 on one structural match.
//  * cancellation-check overhead in the DP / counter hot loops — the
//    same loop with a null control vs an active never-tripping
//    QueryControl, gated < 1% as a same-run pair by
//    check_perf_regression.py --overhead-pair.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/counter.h"
#include "core/dp.h"
#include "core/enumerator.h"
#include "core/motif_catalog.h"
#include "core/sliding_window.h"
#include "core/structural_match.h"
#include "core/window_cursor.h"
#include "gen/presets.h"
#include "graph/edge_series.h"
#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace flowmotif {
namespace {

EdgeSeries MakeSeries(size_t n) {
  Rng rng(99);
  std::vector<Interaction> interactions;
  Timestamp t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += 1 + static_cast<Timestamp>(rng.NextBounded(20));
    interactions.push_back({t, 1.0 + static_cast<Flow>(rng.NextBounded(9))});
  }
  return EdgeSeries(interactions);
}

// Args: {series length, query window width in ticks}. Narrow windows
// favor the naive scan (few elements); wide windows are where the
// prefix sums earn their keep — the DP's flow([tj,ti],k) lookups span
// arbitrarily wide ranges.
void BM_EdgeSeriesFlowPrefixSum(benchmark::State& state) {
  const EdgeSeries series = MakeSeries(static_cast<size_t>(state.range(0)));
  const Timestamp max_t = series.time(series.size() - 1);
  const Timestamp width = state.range(1);
  Rng rng(7);
  for (auto _ : state) {
    Timestamp lo = static_cast<Timestamp>(
        rng.NextBounded(static_cast<uint64_t>(max_t)));
    benchmark::DoNotOptimize(series.FlowInClosed(lo, lo + width));
  }
}
BENCHMARK(BM_EdgeSeriesFlowPrefixSum)
    ->Args({1000, 200})
    ->Args({100000, 200})
    ->Args({100000, 100000});

void BM_EdgeSeriesFlowNaiveScan(benchmark::State& state) {
  const EdgeSeries series = MakeSeries(static_cast<size_t>(state.range(0)));
  const Timestamp max_t = series.time(series.size() - 1);
  const Timestamp width = state.range(1);
  Rng rng(7);
  for (auto _ : state) {
    Timestamp lo = static_cast<Timestamp>(
        rng.NextBounded(static_cast<uint64_t>(max_t)));
    Timestamp hi = lo + width;
    // The naive alternative the prefix sums replace.
    double sum = 0.0;
    for (size_t i = series.LowerBound(lo);
         i < series.size() && series.time(i) <= hi; ++i) {
      sum += series.flow(i);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_EdgeSeriesFlowNaiveScan)
    ->Args({1000, 200})
    ->Args({100000, 200})
    ->Args({100000, 100000});

const TimeSeriesGraph& MicroGraph() {
  static const TimeSeriesGraph* const kGraph = new TimeSeriesGraph(
      GenerateDataset(GetPreset(DatasetKind::kPassenger), 0.5));
  return *kGraph;
}

void BM_StructuralMatching(benchmark::State& state) {
  const TimeSeriesGraph& graph = MicroGraph();
  const Motif& motif =
      MotifCatalog::All()[static_cast<size_t>(state.range(0))];
  for (auto _ : state) {
    StructuralMatcher matcher(graph, motif);
    benchmark::DoNotOptimize(matcher.CountMatches());
  }
  state.SetLabel(motif.name());
}
BENCHMARK(BM_StructuralMatching)->Arg(0)->Arg(1)->Arg(6);

void BM_WindowComputation(benchmark::State& state) {
  const EdgeSeries first = MakeSeries(static_cast<size_t>(state.range(0)));
  const EdgeSeries last = MakeSeries(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeProcessedWindows(first, last, 600));
  }
}
BENCHMARK(BM_WindowComputation)->Arg(1000)->Arg(10000);

void BM_Phase2PerMatch(benchmark::State& state) {
  const TimeSeriesGraph& graph = MicroGraph();
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  StructuralMatcher matcher(graph, motif);
  const std::vector<MatchBinding> matches = matcher.FindAllMatches();
  EnumerationOptions options;
  options.delta = 900;
  options.phi = 2.0;
  FlowMotifEnumerator enumerator(graph, motif, options);
  size_t cursor = 0;
  for (auto _ : state) {
    EnumerationResult result;
    enumerator.EnumerateMatch(matches[cursor % matches.size()], nullptr,
                              &result);
    benchmark::DoNotOptimize(result.num_instances);
    ++cursor;
  }
}
BENCHMARK(BM_Phase2PerMatch);

// ---------------------------------------------------------------------
// Cancellation-check overhead. Each pair runs the identical hot loop
// twice: once on the zero-overhead null-control path, once under an
// active QueryControl whose deadline is hours away — every per-match
// cooperative check executes but never trips. CI gates
// Control vs NoControl at < 1% with check_perf_regression.py
// --overhead-pair: both rows come from one JSON of one run on one
// machine, so the comparison dodges the cross-machine noise the
// absolute baseline gate has to absorb with its 25% threshold.

const MatchList& MicroMatches() {
  static const MatchList* const kMatches = [] {
    const Motif motif = *MotifCatalog::ByName("M(3,2)");
    StructuralMatcher matcher(MicroGraph(), motif);
    return new MatchList(
        MatchList::FromBindings(matcher.FindAllMatches(), motif.num_nodes()));
  }();
  return *kMatches;
}

// The kTop1 hot path: MaxFlowDpSearcher::RunOnMatches checks site
// "dp.match" once per structural match.
void RunDpMatchLoop(benchmark::State& state, QueryControl* control) {
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  const MaxFlowDpSearcher searcher(MicroGraph(), motif, 900);
  const MatchList& matches = MicroMatches();
  MaxFlowDpSearcher::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(searcher.RunOnMatches(
        matches, 0, matches.size(), &scratch, control));
  }
}

void BM_DpMatchLoop_NoControl(benchmark::State& state) {
  RunDpMatchLoop(state, nullptr);
}
BENCHMARK(BM_DpMatchLoop_NoControl);

void BM_DpMatchLoop_Control(benchmark::State& state) {
  QueryControl control(nullptr, QueryDeadline::AfterSeconds(3600.0),
                       WorkBudget());
  RunDpMatchLoop(state, &control);
}
BENCHMARK(BM_DpMatchLoop_Control);

// The kCount hot path: the engine's per-batch loop checks site
// "p2.batch" once per structural match around CountMatch.
void RunCountMatchLoop(benchmark::State& state, QueryControl* control) {
  constexpr Timestamp kDelta = 900;
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  const InstanceCounter counter(MicroGraph(), motif, kDelta, 2.0);
  const MatchList& matches = MicroMatches();
  for (auto _ : state) {
    InstanceCounter::Result result;
    WindowReader windows(kDelta);
    for (int64_t i = 0; i < matches.size(); ++i) {
      if (control != nullptr && control->CheckAt(failpoint::kP2Batch)) break;
      counter.CountMatch(matches[i], &result, &windows);
    }
    benchmark::DoNotOptimize(result.num_instances);
  }
}

void BM_CountMatchLoop_NoControl(benchmark::State& state) {
  RunCountMatchLoop(state, nullptr);
}
BENCHMARK(BM_CountMatchLoop_NoControl);

void BM_CountMatchLoop_Control(benchmark::State& state) {
  QueryControl control(nullptr, QueryDeadline::AfterSeconds(3600.0),
                       WorkBudget());
  RunCountMatchLoop(state, &control);
}
BENCHMARK(BM_CountMatchLoop_Control);

}  // namespace
}  // namespace flowmotif

BENCHMARK_MAIN();
