// Significance-ensemble micro-benchmarks (Fig. 14 workload): one
// SignificanceAnalyzer::Analyze is the real graph plus N flow-permuted
// graphs (structure and timestamps fixed, flow multiset shuffled), each
// enumerated with the same motif — the null-model ensemble that Sec. 6.3
// and the related motif-significance literature (Paranjape et al.,
// Kovanen et al.) treat as the dominant cost, N+1 times the enumeration
// price.
//
// Presets:
//  * hub_fanin — K sparse 3-edge chains a_i > b_i > c_i > D feeding one
//    ultra-dense hub edge D > E; motif M(5,4) (node 2 interior). Every
//    match's (first, last) pair is distinct and its window list costs
//    O(|R(D,E)|) to compute, so the window work is the dominant
//    ensemble cost — the shape
//    (many sparse paths ending in one high-traffic edge) mirrors
//    exchange hubs in the bitcoin network. This is the preset the
//    ISSUE-5 >=1.5x target and the CI regression threshold track.
//  * hub_chain — same graph, M(4,3): no interior node.
//  * ring_chain — dense directed ring, M(4,3): recursion-dominated
//    counter-preset where window lists are a small fraction; guards
//    against the ensemble machinery taxing sweep-bound workloads.
//  * analyze_all — AnalyzeAll over three catalog motifs on the hub
//    graph: the paper randomizes the dataset once and evaluates every
//    motif against the same ensemble.
//  * permute_only — WithPermutedFlows generation alone: the storage
//    split turns full-graph copies into flow-array views.
//
// Run with --benchmark_out_format=json; the CI perf step compares
// real_time per benchmark name against the committed BENCH_baseline.json
// (pre-refactor significance path on the reference container) and fails
// on >25% single-thread regression.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/motif_catalog.h"
#include "core/significance.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "util/logging.h"
#include "util/random.h"

namespace flowmotif {
namespace {

constexpr Timestamp kSpan = 1000000;  // event horizon of all presets
constexpr int kNumRandomGraphs = 20;  // as in the paper

/// Evenly spreads `per_edge` jittered interactions over [0, span).
void FillEdge(InteractionGraph* g, VertexId src, VertexId dst, int per_edge,
              Rng* rng) {
  const Timestamp slot = kSpan / per_edge;
  for (int i = 0; i < per_edge; ++i) {
    const Timestamp t =
        slot * i + static_cast<Timestamp>(
                       rng->NextBounded(static_cast<uint64_t>(slot)));
    const Flow f = rng->UniformDouble(0.5, 10.0);
    const Status s = g->AddEdge(src, dst, t, f);
    FLOWMOTIF_CHECK(s.ok()) << s.ToString();
  }
}

/// K sparse chains a_i > b_i > c_i > D converging on one dense hub edge
/// D > E. M(5,4) matches once per chain, each match with its own
/// (first, last) = (R(a_i,b_i), R(D,E)) pair whose window list scans
/// the whole dense hub series.
TimeSeriesGraph MakeHubFanIn(int num_chains, int per_chain_edge,
                             int per_hub_edge, uint64_t seed) {
  InteractionGraph g;
  Rng rng(seed);
  // Vertices: chains use 3*num_chains ids, hub D and sink E follow.
  const VertexId hub = static_cast<VertexId>(3 * num_chains);
  const VertexId sink = hub + 1;
  for (int i = 0; i < num_chains; ++i) {
    const VertexId a = static_cast<VertexId>(3 * i);
    FillEdge(&g, a, a + 1, per_chain_edge, &rng);
    FillEdge(&g, a + 1, a + 2, per_chain_edge, &rng);
    FillEdge(&g, a + 2, hub, per_chain_edge, &rng);
  }
  FillEdge(&g, hub, sink, per_hub_edge, &rng);
  return TimeSeriesGraph::Build(g);
}

/// Directed ring 0 -> 1 -> ... -> size-1 -> 0, every edge `per_edge`
/// dense: the recursion-heavy counter-preset.
TimeSeriesGraph MakeRing(int size, int per_edge, uint64_t seed) {
  InteractionGraph g;
  Rng rng(seed);
  for (VertexId v = 0; v < size; ++v) {
    FillEdge(&g, v, (v + 1) % size, per_edge, &rng);
  }
  return TimeSeriesGraph::Build(g);
}

const TimeSeriesGraph& HubFanInGraph() {
  // Thin chains, heavy hub: the flow-dependent recursion stays small
  // while the flow-independent ensemble costs — the O(|R(D,E)|) window
  // scan per (first, last) pair and the per-permutation storage — carry
  // the run, which is the regime real hub-dominated datasets (bitcoin
  // exchange edges) put the significance pipeline in.
  static const TimeSeriesGraph* graph = new TimeSeriesGraph(
      MakeHubFanIn(/*num_chains=*/40, /*per_chain_edge=*/60,
                   /*per_hub_edge=*/240000, /*seed=*/7));
  return *graph;
}

const TimeSeriesGraph& DenseRingGraph() {
  static const TimeSeriesGraph* graph =
      new TimeSeriesGraph(MakeRing(8, 1200, 11));
  return *graph;
}

SignificanceAnalyzer::Options AnalyzerOptions(Timestamp delta, Flow phi) {
  SignificanceAnalyzer::Options options;
  options.num_random_graphs = kNumRandomGraphs;
  options.seed = 424242;
  options.delta = delta;
  options.phi = phi;
  return options;
}

/// One full Analyze per iteration: ensemble generation + real count +
/// kNumRandomGraphs randomized counts (serial, 1 thread — the number the
/// CI gate tracks).
void RunSignificanceBenchmark(benchmark::State& state,
                              const TimeSeriesGraph& graph,
                              const Motif& motif, Flow phi) {
  const Timestamp delta = state.range(0);
  const SignificanceAnalyzer analyzer(graph, AnalyzerOptions(delta, phi));

  SignificanceAnalyzer::MotifReport report;
  for (auto _ : state) {
    report = analyzer.Analyze(motif);
    benchmark::DoNotOptimize(report.real_count);
  }
  state.counters["real"] =
      benchmark::Counter(static_cast<double>(report.real_count));
  state.counters["rnd_mean"] = benchmark::Counter(report.random_summary.mean);
  state.counters["z"] = benchmark::Counter(report.z_score);
  state.counters["graphs/s"] = benchmark::Counter(
      static_cast<double>(kNumRandomGraphs + 1) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_Fig14Significance_HubFanIn(benchmark::State& state) {
  RunSignificanceBenchmark(state, HubFanInGraph(),
                           *MotifCatalog::ByName("M(5,4)"), /*phi=*/6.0);
}
BENCHMARK(BM_Fig14Significance_HubFanIn)
    ->Arg(30000)
    ->Arg(60000)
    ->Unit(benchmark::kMillisecond);

void BM_Fig14Significance_HubChain(benchmark::State& state) {
  RunSignificanceBenchmark(state, HubFanInGraph(),
                           *MotifCatalog::ByName("M(4,3)"), /*phi=*/6.0);
}
BENCHMARK(BM_Fig14Significance_HubChain)
    ->Arg(30000)
    ->Unit(benchmark::kMillisecond);

void BM_Fig14Significance_RingChain(benchmark::State& state) {
  RunSignificanceBenchmark(state, DenseRingGraph(),
                           *MotifCatalog::ByName("M(4,3)"), /*phi=*/12.0);
}
BENCHMARK(BM_Fig14Significance_RingChain)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

/// AnalyzeAll over a motif set: the paper's setup randomizes the dataset
/// once and evaluates every motif against the same ensemble.
void BM_Fig14Significance_AnalyzeAll(benchmark::State& state) {
  const Timestamp delta = state.range(0);
  const TimeSeriesGraph& graph = HubFanInGraph();
  const SignificanceAnalyzer analyzer(graph,
                                      AnalyzerOptions(delta, /*phi=*/6.0));
  const std::vector<Motif> motifs = {*MotifCatalog::ByName("M(3,2)"),
                                     *MotifCatalog::ByName("M(4,3)"),
                                     *MotifCatalog::ByName("M(5,4)")};

  for (auto _ : state) {
    const std::vector<SignificanceAnalyzer::MotifReport> reports =
        analyzer.AnalyzeAll(motifs);
    benchmark::DoNotOptimize(reports.size());
  }
}
BENCHMARK(BM_Fig14Significance_AnalyzeAll)
    ->Arg(30000)
    ->Unit(benchmark::kMillisecond);

/// Ensemble generation alone: kNumRandomGraphs WithPermutedFlows calls
/// from one serial RNG stream, exactly as the analyzer draws them.
void BM_Fig14Significance_PermuteOnly(benchmark::State& state) {
  const TimeSeriesGraph& graph = HubFanInGraph();
  for (auto _ : state) {
    Rng rng(424242);
    for (int i = 0; i < kNumRandomGraphs; ++i) {
      const TimeSeriesGraph permuted = graph.WithPermutedFlows(&rng);
      benchmark::DoNotOptimize(permuted.num_pairs());
    }
  }
}
BENCHMARK(BM_Fig14Significance_PermuteOnly)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace flowmotif

BENCHMARK_MAIN();
