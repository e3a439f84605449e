// Live-maintenance benchmark: the cost of keeping a standing motif
// query current over a growing stream (stream/streaming_monitor.h)
// versus the naive alternative of recomputing the batch answer from
// scratch at every epoch.
//
// One shared schedule drives both sides: a bitcoin-preset trace is
// replayed time-ordered, the first half seeds the monitor/engine as
// historical backfill, and the rest arrives in kEpochs (>= 100) sealed
// batches. The incremental side appends and seals; the recompute side
// rebuilds the prefix graph and runs a batch kCount per epoch — exactly
// what a deployment without streaming support would do. Both sides are
// CHECKed against the same final batch count, so the speedup ratio the
// perf trajectory tracks is between answers that are provably equal.
//
// BM_EpochLogSeal isolates the graph layer's part of an epoch: one
// EpochLog::SealEpoch of a 300-edge batch on the full-size bitcoin
// trace, the seal every live-serving epoch pays. A seal shares the
// storage of every series it leaves untouched, so the row should track
// the dirty pairs it reports, not the graph's pair count.
//
// Run with --benchmark_format=json to emit the rows merged into the
// repo root's BENCH_baseline.json and checked by the CI perf-smoke
// step.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/motif_catalog.h"
#include "engine/query_engine.h"
#include "gen/presets.h"
#include "graph/epoch_log.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "stream/streaming_monitor.h"
#include "util/logging.h"

namespace flowmotif {
namespace {

constexpr int kEpochs = 120;        // sealed batches after the backfill
constexpr double kTraceScale = 0.05;  // preset scale; small but non-trivial

/// The replayed stream both benchmark sides consume.
struct StreamSchedule {
  InteractionGraph seed;                        // historical backfill
  std::vector<InteractionGraph::Edge> tail;     // arrives after the seed
  std::vector<size_t> epoch_ends;               // exclusive index per epoch
  Motif motif = *MotifCatalog::ByName("M(3,2)");
  Timestamp delta = 0;
  Flow phi = 0.0;
  int64_t expected_final_count = 0;  // batch kCount on the full trace
};

/// Flattens `graph` back into its time-ordered transfer trace.
std::vector<InteractionGraph::Edge> TimeOrderedTrace(
    const TimeSeriesGraph& graph) {
  std::vector<InteractionGraph::Edge> trace;
  for (const TimeSeriesGraph::PairEdge& pair : graph.pairs()) {
    for (size_t i = 0; i < pair.series.size(); ++i) {
      const Interaction x = pair.series.at(i);
      trace.push_back({pair.src, pair.dst, x.t, x.f});
    }
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const InteractionGraph::Edge& a,
                      const InteractionGraph::Edge& b) { return a.t < b.t; });
  return trace;
}

/// Splits `trace` at its midpoint: the first half into `seed` (over
/// `num_vertices` vertices), the rest into `tail`.
void SplitTrace(const std::vector<InteractionGraph::Edge>& trace,
                int64_t num_vertices, InteractionGraph* seed,
                std::vector<InteractionGraph::Edge>* tail) {
  const size_t backfill = trace.size() / 2;
  seed->EnsureVertices(num_vertices);
  for (size_t i = 0; i < backfill; ++i) {
    const InteractionGraph::Edge& e = trace[i];
    const Status status = seed->AddEdge(e.src, e.dst, e.t, e.f);
    FLOWMOTIF_CHECK(status.ok()) << status;
  }
  tail->assign(trace.begin() + static_cast<std::ptrdiff_t>(backfill),
               trace.end());
}

const StreamSchedule& Schedule() {
  static const StreamSchedule* schedule = [] {
    auto* s = new StreamSchedule();
    const DatasetPreset& preset = GetPreset(DatasetKind::kBitcoin);
    s->delta = preset.default_delta;
    s->phi = preset.default_phi;
    const TimeSeriesGraph full =
        GenerateDataset(preset, kTraceScale * bench::BenchScale());

    const std::vector<InteractionGraph::Edge> trace = TimeOrderedTrace(full);
    FLOWMOTIF_CHECK(trace.size() >= 4 * kEpochs)
        << "trace too small for " << kEpochs << " epochs: " << trace.size();
    SplitTrace(trace, full.num_vertices(), &s->seed, &s->tail);
    for (int e = 1; e <= kEpochs; ++e) {
      s->epoch_ends.push_back(s->tail.size() * static_cast<size_t>(e) /
                              kEpochs);
    }

    QueryEngine engine(full);
    const QueryResult result = engine.Run(
        s->motif, bench::BenchQueryOptions(QueryMode::kCount, s->delta,
                                           s->phi));
    s->expected_final_count = result.stats.num_instances;
    FLOWMOTIF_CHECK(s->expected_final_count > 0);
    return s;
  }();
  return *schedule;
}

/// Incremental side: one seeded monitor, kEpochs append+seal rounds on
/// the clock. Monitor construction (the backfill's full P1 + scan) is
/// excluded — it is the one-time cost both deployments pay.
void BM_Streaming_IncrementalSeal(benchmark::State& state) {
  const StreamSchedule& s = Schedule();
  StreamOptions options;
  options.delta = s.delta;
  options.phi = s.phi;
  options.k = 10;
  int64_t revisited = 0;
  for (auto _ : state) {
    state.PauseTiming();
    StreamingMotifMonitor monitor(s.motif, options, s.seed);
    state.ResumeTiming();
    size_t cursor = 0;
    revisited = 0;
    for (const size_t end : s.epoch_ends) {
      for (; cursor < end; ++cursor) monitor.Append(s.tail[cursor]);
      const StreamingMotifMonitor::EpochStats stats = monitor.SealEpoch();
      revisited += static_cast<int64_t>(stats.num_matches_revisited);
    }
    FLOWMOTIF_CHECK_EQ(monitor.TotalInstances(), s.expected_final_count);
    benchmark::DoNotOptimize(monitor.TotalInstances());
  }
  state.counters["epochs"] = benchmark::Counter(kEpochs);
  state.counters["matches_revisited"] =
      benchmark::Counter(static_cast<double>(revisited));
  state.counters["epochs/s"] = benchmark::Counter(
      static_cast<double>(kEpochs) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Streaming_IncrementalSeal)->Unit(benchmark::kMillisecond);

/// Recompute side: at every epoch, rebuild the prefix graph from the
/// raw trace and run the batch engine — the per-epoch cost a
/// no-streaming deployment pays for the same always-current answer.
void BM_Streaming_RecomputePerEpoch(benchmark::State& state) {
  const StreamSchedule& s = Schedule();
  const QueryOptions options =
      bench::BenchQueryOptions(QueryMode::kCount, s.delta, s.phi);
  for (auto _ : state) {
    int64_t count = 0;
    for (const size_t end : s.epoch_ends) {
      InteractionGraph prefix = s.seed;
      for (size_t i = 0; i < end; ++i) {
        const InteractionGraph::Edge& e = s.tail[i];
        const Status status = prefix.AddEdge(e.src, e.dst, e.t, e.f);
        FLOWMOTIF_CHECK(status.ok()) << status;
      }
      const TimeSeriesGraph graph = TimeSeriesGraph::Build(prefix);
      const QueryEngine engine(graph);
      count = engine.Run(s.motif, options).stats.num_instances;
    }
    FLOWMOTIF_CHECK_EQ(count, s.expected_final_count);
    benchmark::DoNotOptimize(count);
  }
  state.counters["epochs"] = benchmark::Counter(kEpochs);
  state.counters["epochs/s"] = benchmark::Counter(
      static_cast<double>(kEpochs) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Streaming_RecomputePerEpoch)->Unit(benchmark::kMillisecond);

constexpr size_t kSealEdges = 300;  // edges per sealed epoch

/// The seal row's stream: the bitcoin trace at scale 1 x BenchScale(),
/// its first half the seed of every log.
struct SealStream {
  InteractionGraph seed;
  std::vector<InteractionGraph::Edge> tail;
};

const SealStream& SealTrace() {
  static const SealStream* stream = [] {
    auto* s = new SealStream();
    const TimeSeriesGraph& full =
        bench::BenchGraph(GetPreset(DatasetKind::kBitcoin));
    const std::vector<InteractionGraph::Edge> trace = TimeOrderedTrace(full);
    SplitTrace(trace, full.num_vertices(), &s->seed, &s->tail);
    FLOWMOTIF_CHECK(s->tail.size() >= kSealEdges)
        << "trace too small for one seal: " << trace.size();
    return s;
  }();
  return *stream;
}

/// One EpochLog::SealEpoch per iteration: the next kSealEdges edges are
/// appended untimed, the seal that folds them into a new snapshot is
/// timed. When the tail runs out, the log is rebuilt from the seed
/// (untimed), so the graph stays between half and all of the trace.
void BM_EpochLogSeal(benchmark::State& state) {
  const SealStream& s = SealTrace();
  std::unique_ptr<EpochLog> log;
  size_t cursor = s.tail.size();  // forces the first build
  double pairs = 0.0;
  double dirty_pairs = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    if (s.tail.size() - cursor < kSealEdges) {
      log = std::make_unique<EpochLog>(s.seed);
      cursor = 0;
    }
    for (const size_t end = cursor + kSealEdges; cursor < end; ++cursor) {
      const Status status = log->Append(s.tail[cursor]);
      FLOWMOTIF_CHECK(status.ok()) << status;
    }
    state.ResumeTiming();
    const EpochLog::SealInfo info = log->SealEpoch();
    benchmark::DoNotOptimize(info.graph.get());
    pairs += static_cast<double>(info.graph->num_pairs());
    dirty_pairs += static_cast<double>(info.dirty_pairs.size());
  }
  state.counters["pairs"] =
      benchmark::Counter(pairs, benchmark::Counter::kAvgIterations);
  state.counters["dirty_pairs"] =
      benchmark::Counter(dirty_pairs, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EpochLogSeal)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace flowmotif

BENCHMARK_MAIN();
