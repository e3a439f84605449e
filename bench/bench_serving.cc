// Serving-layer benchmarks (DESIGN.md Sec. 11): QueryService end-to-end
// rows for CI's perf gate.
//  * BM_ServeRepeatedCount vs BM_DirectEngineCount — the same kCount
//    query submitted repeatedly through a 1-worker (inline,
//    deterministic) service, and run repeatedly on a bare
//    QueryEngine::Run at one thread. The served row adds the service
//    round trip (admission, future, stats) and skips phase P1 on its
//    match-list cache hits; the bare row scans P1 every time. The
//    served run also borrows the service's helpers (one per hardware
//    thread beyond the 1-query cap), so on a multi-core machine its P2
//    batches run on several threads while the bare row's run on one:
//    the pair compares a served query with a solo serial one, not the
//    service's overhead alone.
//  * BM_ServeMixedConcurrent — a batch of distinct queries per
//    iteration through a 4-worker service: the QPS row. Latency
//    percentiles ride along as counters (p50_ms / p99_ms) computed
//    from each submission's ServedResult.total_seconds.
//  * BM_ServeSealUnderLoad — per iteration: a query in flight, a burst
//    of appends, a SealEpoch, and a post-seal query. The row is the
//    cost of publishing a new epoch under live traffic (extend-build
//    of the dirty pairs + result-cache invalidation + the post-seal
//    query on a cold result cache).
//
// The completed-result cache is off in every row that re-submits an
// identical query — these rows measure the execution path, and a
// result-cache hit would short-circuit it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <future>
#include <vector>

#include "core/motif_catalog.h"
#include "engine/query_engine.h"
#include "engine/query_options.h"
#include "gen/presets.h"
#include "graph/time_series_graph.h"
#include "serve/query_service.h"

namespace flowmotif {
namespace {

const TimeSeriesGraph& ServingGraph() {
  static const TimeSeriesGraph* const kGraph = new TimeSeriesGraph(
      GenerateDataset(GetPreset(DatasetKind::kPassenger), 0.25));
  return *kGraph;
}

constexpr Timestamp kDelta = 900;

QueryOptions CountOptions() {
  QueryOptions options;
  options.mode = QueryMode::kCount;
  options.delta = kDelta;
  options.phi = 2.0;
  return options;
}

ServeRequest MakeRequest(const Motif& motif, const QueryOptions& options) {
  return ServeRequest{motif, options, std::string(), nullptr};
}

/// Sorts `latencies` and attaches p50/p99 (milliseconds) to the row.
void ReportLatencyCounters(benchmark::State& state,
                           std::vector<double>* latencies) {
  if (latencies->empty()) return;
  std::sort(latencies->begin(), latencies->end());
  const auto at = [&](double pct) {
    const size_t index = static_cast<size_t>(
        pct * static_cast<double>(latencies->size() - 1) + 0.5);
    return (*latencies)[index] * 1e3;
  };
  state.counters["p50_ms"] = at(0.50);
  state.counters["p99_ms"] = at(0.99);
}

// ---------------------------------------------------------------------
// Service overhead: an identical repeated query. One worker means
// Submit runs the query inline on this thread, so there is no
// scheduling noise. Dedup is off so every submission really executes;
// one untimed warm-up submission fills the match-list cache.

void BM_ServeRepeatedCount(benchmark::State& state) {
  ServiceConfig config;
  config.num_workers = 1;
  config.enable_dedup = false;
  config.enable_result_cache = false;  // repeats must re-execute
  QueryService service(ServingGraph(), config);
  const Motif motif = *MotifCatalog::ByName("M(3,2)");

  service.Submit(MakeRequest(motif, CountOptions())).get();  // warm-up

  std::vector<double> latencies;
  for (auto _ : state) {
    const ServedResult served =
        service.Submit(MakeRequest(motif, CountOptions())).get();
    benchmark::DoNotOptimize(served.result->stats.num_instances);
    latencies.push_back(served.total_seconds);
  }
  state.SetItemsProcessed(state.iterations());
  ReportLatencyCounters(state, &latencies);
}
BENCHMARK(BM_ServeRepeatedCount);

// The floor: the same query through a bare engine, no service.
void BM_DirectEngineCount(benchmark::State& state) {
  const QueryEngine engine(ServingGraph());
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  const QueryOptions options = CountOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(motif, options).stats.num_instances);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectEngineCount);

// ---------------------------------------------------------------------
// Concurrent mixed workload: per iteration, a batch of distinct
// queries (two motifs x two deltas x two modes) fans out over four
// workers and the iteration completes when the whole batch has. The
// row's items/s is the service's QPS on this workload; p50/p99 are
// per-query submit-to-completion latencies.

void BM_ServeMixedConcurrent(benchmark::State& state) {
  ServiceConfig config;
  config.num_workers = 4;
  config.enable_dedup = false;         // every submission is a real run
  config.enable_result_cache = false;  // idem across iterations
  QueryService service(ServingGraph(), config);

  struct Case {
    const char* motif_name;
    QueryMode mode;
    Timestamp delta;
  };
  const std::vector<Case> cases = {
      {"M(3,2)", QueryMode::kCount, kDelta},
      {"M(3,2)", QueryMode::kTop1, kDelta},
      {"M(3,2)", QueryMode::kCount, kDelta / 2},
      {"M(5,4)", QueryMode::kCount, kDelta},
      {"M(5,4)", QueryMode::kTop1, kDelta},
      {"M(5,4)", QueryMode::kCount, kDelta / 2},
      {"M(3,3)", QueryMode::kCount, kDelta},
      {"M(3,3)", QueryMode::kTop1, kDelta},
  };

  std::vector<double> latencies;
  std::vector<std::future<ServedResult>> futures;
  futures.reserve(cases.size());
  for (auto _ : state) {
    for (const Case& c : cases) {
      QueryOptions options = CountOptions();
      options.mode = c.mode;
      options.delta = c.delta;
      futures.push_back(service.Submit(
          MakeRequest(*MotifCatalog::ByName(c.motif_name), options)));
    }
    for (std::future<ServedResult>& future : futures) {
      const ServedResult served = future.get();
      benchmark::DoNotOptimize(served.result->termination.code);
      latencies.push_back(served.total_seconds);
    }
    futures.clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cases.size()));
  ReportLatencyCounters(state, &latencies);
}
BENCHMARK(BM_ServeMixedConcurrent)->UseRealTime();

// ---------------------------------------------------------------------
// Live serving: seal latency under load. The log grows with every
// seal, so the row rebuilds the service every kRebuildEvery iterations
// (untimed) to keep the measured graph size bounded.

constexpr int kRebuildEvery = 64;

void BM_ServeSealUnderLoad(benchmark::State& state) {
  ServiceConfig config;
  config.num_workers = 2;
  config.enable_dedup = false;
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  const Timestamp base_t = ServingGraph().ComputeStats().max_time;

  std::unique_ptr<QueryService> service;
  Timestamp next_t = base_t;
  int since_rebuild = kRebuildEvery;
  std::vector<double> latencies;
  for (auto _ : state) {
    if (since_rebuild == kRebuildEvery) {
      state.PauseTiming();
      service = std::make_unique<QueryService>(ServingGraph(), config);
      next_t = base_t;
      since_rebuild = 0;
      state.ResumeTiming();
    }
    // A query is in flight on one worker while the writer appends,
    // seals, and serves a post-seal query — the seal-under-load shape.
    std::future<ServedResult> inflight =
        service->Submit(MakeRequest(motif, CountOptions()));
    for (int i = 0; i < 8; ++i) {
      const Status s = service->Append(i % 16, (i + 1) % 16, next_t++, 1.0);
      if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    }
    const EpochLog::SealInfo info = service->SealEpoch();
    benchmark::DoNotOptimize(info.epoch);
    const ServedResult post =
        service->Submit(MakeRequest(motif, CountOptions())).get();
    benchmark::DoNotOptimize(post.result->termination.code);
    latencies.push_back(post.total_seconds);
    inflight.get();
    ++since_rebuild;
  }
  state.SetItemsProcessed(state.iterations());
  ReportLatencyCounters(state, &latencies);
}
BENCHMARK(BM_ServeSealUnderLoad)->UseRealTime();

}  // namespace
}  // namespace flowmotif

BENCHMARK_MAIN();
