// batch_study: the paper's Sec. 6 study on the passenger-like graph,
// straight through QueryEngine with four engine threads. NOTES.md says
// why it exists.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/motif_catalog.h"
#include "core/significance.h"
#include "core/skeleton.h"
#include "core/structural_match.h"
#include "engine/query_engine.h"
#include "layers.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace flowbench {
namespace {

using namespace flowmotif;

constexpr int kEngineThreads = 4;
constexpr int64_t kTopK = 10;
constexpr int kRandomGraphs = 20;
// Studies per nominal second (RunConfig::Operations).
constexpr double kStudiesPerSecond = 0.4;

/// What one study answered; every study of a run must answer the same.
struct StudyAnswers {
  std::vector<SweepResult> sweeps;
  std::vector<QueryResult> topk;
  std::vector<QueryResult> top1;
  std::vector<SignificanceAnalyzer::MotifReport> significance;
};

/// Wall time of one study's calls, by kind.
struct StudyTimes {
  double total = 0.0;
  double sweep = 0.0;
  double topk = 0.0;
  double top1 = 0.0;
  double significance = 0.0;
  int64_t batches = 0;
};

}  // namespace

int RunBatchStudy(const RunConfig& config) {
  Report report;
  StampContext(config, &report);
  Tracer tracer(config.trace);
  const DatasetPreset preset = SeededPreset("passenger", config.seed);
  const std::vector<Motif>& motifs = MotifCatalog::All();
  const SweepQuery grid{preset.delta_sweep, preset.phi_sweep};

  // Set-up: edge file on disk until the engine and its significance pool
  // are ready, repeated.
  std::vector<double> setup_s, load_s, build_s;
  std::unique_ptr<TimeSeriesGraph> graph;
  std::unique_ptr<ThreadPool> pool;
  while (MoreSetups(setup_s)) {
    pool.reset();
    graph.reset();
    const double t0 = Now();
    const InteractionGraph edges = LoadEdges(config.edges);
    const double t1 = Now();
    graph = std::make_unique<TimeSeriesGraph>(TimeSeriesGraph::Build(edges));
    const double t2 = Now();
    pool = std::make_unique<ThreadPool>(kEngineThreads);
    const double t3 = Now();
    setup_s.push_back(t3 - t0);
    load_s.push_back(t1 - t0);
    build_s.push_back(t2 - t1);
    if (!MoreSetups(setup_s)) StampGraph(edges, graph->num_pairs(), &report);
  }
  const QueryEngine engine(*graph);

  QueryOptions sweep_options;
  sweep_options.num_threads = kEngineThreads;
  QueryOptions topk_options = sweep_options;
  topk_options.mode = QueryMode::kTopK;
  topk_options.delta = preset.default_delta;
  topk_options.k = kTopK;
  QueryOptions top1_options = sweep_options;
  top1_options.mode = QueryMode::kTop1;
  top1_options.delta = preset.default_delta;
  SignificanceAnalyzer::Options sig_options;
  sig_options.num_random_graphs = kRandomGraphs;
  sig_options.seed = config.seed;
  sig_options.delta = preset.default_delta;
  sig_options.phi = preset.default_phi;
  sig_options.pool = pool.get();

  // Timed phase: a fixed number of whole studies.
  const size_t num_studies =
      static_cast<size_t>(config.Operations(kStudiesPerSecond));
  std::vector<StudyAnswers> answers;
  std::vector<StudyTimes> times;
  const CpuTicks ticks = ReadCpuTicks();
  const double start = Now();
  const double deadline = config.SafetyDeadline(start);
  while (answers.size() < num_studies &&
         (answers.empty() || Now() < deadline)) {
    StudyAnswers a;
    StudyTimes t;
    const double study_start = Now();
    std::vector<Span> calls;
    auto timed = [&](const char* span, double* bucket, auto&& call) {
      const double t0 = Now();
      call();
      const double t1 = Now();
      *bucket += t1 - t0;
      calls.push_back(Span{span, t0, t1, -1, -1});
    };
    for (const Motif& motif : motifs) {
      timed("engine.sweep", &t.sweep, [&] {
        a.sweeps.push_back(engine.RunSweep(motif, grid, sweep_options));
      });
      report.CountOp("StudyStep", a.sweeps.back().termination.complete());
      timed("engine.topk", &t.topk, [&] {
        a.topk.push_back(engine.Run(motif, topk_options));
      });
      report.CountOp("StudyStep", a.topk.back().termination.complete());
      timed("engine.top1", &t.top1, [&] {
        a.top1.push_back(engine.Run(motif, top1_options));
      });
      report.CountOp("StudyStep", a.top1.back().termination.complete());
      t.batches += a.topk.back().num_batches + a.top1.back().num_batches;
    }
    timed("core.significance", &t.significance, [&] {
      a.significance = SignificanceAnalyzer(*graph, sig_options).AnalyzeAll(motifs);
    });
    for (const auto& r : a.significance) {
      report.CountOp("StudyStep", r.termination.complete());
    }
    t.total = Now() - study_start;
    const int64_t id = tracer.Add("study", study_start, study_start + t.total);
    for (const Span& call : calls) {
      tracer.Add(call.name, call.start, call.end, id);
    }
    answers.push_back(std::move(a));
    times.push_back(t);
  }
  const double elapsed = Now() - start;
  const double peak_rss_mb = PeakRssMb();
  report.Context("cpu_steal_share", StealShare(ticks, ReadCpuTicks()));

  // The workload's operation is one whole study: its calls differ too
  // much in cost for a percentile over calls to land anywhere but in the
  // gaps between them.
  std::vector<double> study_ms;
  for (const StudyTimes& t : times) study_ms.push_back(t.total * 1e3);
  report.EndToEnd("setup_s", Median(setup_s), "s");
  report.EndToEnd("peak_rss_mb", peak_rss_mb, "MB");
  report.EndToEnd("op_p50_ms", Percentile(study_ms, 0.5), "ms");
  report.EndToEnd("op_p95_ms", Percentile(study_ms, 0.95), "ms");
  report.EndToEnd("ops_per_s", static_cast<double>(times.size()) / elapsed,
                  "1/s");
  report.Figure("study_s", Median(study_ms) / 1e3, "s");
  report.Context("setups", static_cast<double>(setup_s.size()));
  report.Context("timed_s", elapsed);
  report.Context("studies", static_cast<double>(answers.size()));
  report.Context("engine_threads", kEngineThreads);
  int64_t windows = 0;
  for (const QueryResult& r : answers.front().topk) {
    windows += r.stats.num_windows_processed;
  }
  report.Context("topk_windows_per_query",
                 static_cast<double>(windows) /
                     static_cast<double>(motifs.size()));
  report.Layer("graph.load_s", Median(load_s), "s");
  report.Layer("graph.build_s", Median(build_s), "s");

  // Output checks after the timed phase: each motif's sweep cell at the
  // preset's default (delta, phi) equals its significance real count, and
  // every study answers exactly as the first.
  size_t default_d = 0, default_p = 0;
  for (size_t d = 0; d < grid.deltas.size(); ++d) {
    if (grid.deltas[d] == preset.default_delta) default_d = d;
  }
  for (size_t p = 0; p < grid.phis.size(); ++p) {
    if (grid.phis[p] == preset.default_phi) default_p = p;
  }
  const StudyAnswers& first = answers.front();
  for (size_t m = 0; m < motifs.size(); ++m) {
    report.Check(first.sweeps[m].count(default_d, default_p) ==
                     first.significance[m].real_count,
                 motifs[m].name() +
                     ": sweep cell at the default delta and phi equals the "
                     "significance real_count");
  }
  for (size_t s = 1; s < answers.size(); ++s) {
    const StudyAnswers& a = answers[s];
    for (size_t m = 0; m < motifs.size(); ++m) {
      const std::string at =
          "study " + std::to_string(s + 1) + " " + motifs[m].name();
      report.Check(a.sweeps[m].counts == first.sweeps[m].counts,
                   at + ": sweep equals the first study's");
      report.Check(SameResult(a.topk[m], first.topk[m]),
                   at + ": top-k equals the first study's");
      report.Check(SameResult(a.top1[m], first.top1[m]),
                   at + ": top-1 equals the first study's");
      report.Check(a.significance[m].real_count ==
                           first.significance[m].real_count &&
                       a.significance[m].random_counts ==
                           first.significance[m].random_counts,
                   at + ": significance equals the first study's");
    }
  }

  if (tracer.enabled()) {
    // Per study means of the engine-side calls.
    StudyTimes mean;
    for (const StudyTimes& t : times) {
      mean.total += t.total;
      mean.sweep += t.sweep;
      mean.topk += t.topk;
      mean.top1 += t.top1;
      mean.significance += t.significance;
      mean.batches += t.batches;
    }
    const double n = static_cast<double>(times.size());
    // Direct core calls for one study's top-k and top-1 queries, and the
    // skeleton record/replay its sweeps run on.
    CoreReplay core;
    double record_s = 0.0, replay_s = 0.0;
    int64_t skeleton_edges = 0;
    FlowPrefixArena arena;
    arena.FillFromGraph(*graph);
    for (size_t m = 0; m < motifs.size(); ++m) {
      const int64_t request = static_cast<int64_t>(m);
      core.Add(ReplayCore(*graph, motifs[m], topk_options, &tracer, request));
      core.Add(ReplayCore(*graph, motifs[m], top1_options, &tracer, request));
      const std::vector<MatchBinding> matches =
          StructuralMatcher(*graph, motifs[m]).FindAllMatches();
      for (size_t d = 0; d < grid.deltas.size(); ++d) {
        EnumerationSkeleton skeleton;
        double t0 = Now();
        const bool recorded = skeleton.Record(*graph, motifs[m],
                                              grid.deltas[d], matches, nullptr);
        double t1 = Now();
        tracer.Add("core.skeleton_record", t0, t1, -1, request);
        record_s += t1 - t0;
        if (!recorded) continue;
        skeleton_edges += static_cast<int64_t>(skeleton.num_edges());
        SkeletonReplayer replayer(&skeleton);
        for (size_t p = 0; p < grid.phis.size(); ++p) {
          t0 = Now();
          const int64_t count = replayer.Count(arena, grid.phis[p]);
          t1 = Now();
          tracer.Add("core.skeleton_replay", t0, t1, -1, request);
          replay_s += t1 - t0;
          report.Check(count == first.sweeps[m].count(d, p),
                       motifs[m].name() + ": skeleton replay equals the sweep "
                                          "cell");
        }
      }
    }
    ReportCoreLayers(core, &report);
    const double run_s = (mean.topk + mean.top1) / n;
    report.Layer("core.skeleton_record_s", record_s, "s");
    report.Layer("core.skeleton_replay_s", replay_s, "s");
    report.Layer("core.skeleton_edges", static_cast<double>(skeleton_edges),
                 "count");
    report.Layer("core.significance_s", mean.significance / n, "s");
    report.Layer("engine.run_s", run_s, "s");
    report.Layer("engine.residue_s",
                 run_s - core.p1_s - core.p2_s - core.dp_s, "s");
    report.Layer("engine.sweep_s", mean.sweep / n, "s");
    report.Layer("engine.topk_s", mean.topk / n, "s");
    report.Layer("engine.top1_s", mean.top1 / n, "s");
    report.Layer("engine.batches", static_cast<double>(mean.batches) / n,
                 "count");
    report.Note("p1 share of engine.run_s = " +
                FormatDouble(run_s > 0 ? core.p1_s / run_s : 0.0));
    const double parts =
        (mean.sweep + mean.topk + mean.top1 + mean.significance) / n;
    report.Note("reconciliation per study: study " +
                FormatDouble(mean.total / n) + " s = sweeps " +
                FormatDouble(mean.sweep / n) + " s + top-k " +
                FormatDouble(mean.topk / n) + " s + top-1 " +
                FormatDouble(mean.top1 / n) + " s + significance " +
                FormatDouble(mean.significance / n) + " s + residue " +
                FormatDouble(mean.total / n - parts) + " s");
    FinishTrace(config, tracer, &report);
  }
  return report.Finish(std::cout);
}

}  // namespace flowbench
