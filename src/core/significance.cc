#include "core/significance.h"

#include <algorithm>

#include "core/structural_match.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace flowmotif {

namespace {

/// Longest contiguous completed-task prefix — the only part of a
/// stopped ensemble the report may use: parallel tasks beyond the first
/// never-ran task completed out of canonical order.
int64_t DonePrefix(const std::vector<uint8_t>& done) {
  int64_t prefix = 0;
  while (prefix < static_cast<int64_t>(done.size()) &&
         done[static_cast<size_t>(prefix)] != 0) {
    ++prefix;
  }
  return prefix;
}

}  // namespace

SignificanceAnalyzer::SignificanceAnalyzer(const TimeSeriesGraph& graph,
                                           const Options& options)
    : graph_(graph), options_(options) {
  FLOWMOTIF_CHECK_GT(options.num_random_graphs, 0);
}

std::vector<TimeSeriesGraph> SignificanceAnalyzer::GeneratePermutedViews()
    const {
  // The RNG stream is keyed on the seed only and consumed serially, so
  // view i is the same graph regardless of pool size, motif set, or
  // which motif is analyzed first — as in the paper, one set of
  // randomized datasets serves all motifs. Views share the real graph's
  // timestamp/topology storage and own only permuted flow arrays, so
  // holding the whole ensemble costs N flow/prefix arrays, not N graph
  // copies.
  Rng rng(options_.seed);
  std::vector<TimeSeriesGraph> views;
  views.reserve(static_cast<size_t>(options_.num_random_graphs));
  for (int i = 0; i < options_.num_random_graphs; ++i) {
    views.push_back(graph_.WithPermutedFlows(&rng));
  }
  return views;
}

std::vector<std::vector<Flow>> SignificanceAnalyzer::GeneratePermutedFlows()
    const {
  FlowPermutationStream stream(graph_, options_.seed);
  std::vector<std::vector<Flow>> permuted(
      static_cast<size_t>(options_.num_random_graphs));
  for (auto& flows : permuted) stream.NextPermutationInto(&flows);
  return permuted;
}

bool SignificanceAnalyzer::RecordSkeleton(const Motif& motif,
                                          const PreparedMotif& prepared,
                                          SharedWindowCache* cache,
                                          EnumerationSkeleton* skeleton) const {
  EnumerationSkeleton::Options sk_options;
  sk_options.max_edges = options_.max_skeleton_edges;
  sk_options.query_control = options_.control;
  if (options_.reuse_matches) {
    return skeleton->Record(graph_, motif, options_.delta, prepared.matches,
                            cache, sk_options);
  }
  // reuse_matches off means the fallback path re-runs P1 per graph, but
  // recording still needs the real graph's matches (they are identical
  // on every permutation, so the recorded skeleton serves all tasks).
  const StructuralMatcher matcher(graph_, motif);
  const std::vector<MatchBinding> matches =
      options_.pool != nullptr ? matcher.FindAllMatchesParallel(options_.pool)
                               : matcher.FindAllMatches();
  return skeleton->Record(graph_, motif, options_.delta, matches, cache,
                          sk_options);
}

int64_t SignificanceAnalyzer::ReplayEnsemble(
    const EnumerationSkeleton& skeleton,
    const std::vector<std::vector<Flow>>& permuted_flows,
    std::vector<int64_t>* counts) const {
  const int64_t num_tasks = static_cast<int64_t>(permuted_flows.size()) + 1;
  counts->assign(static_cast<size_t>(num_tasks), 0);
  QueryControl* const control = options_.control;
  if (options_.pool != nullptr) {
    std::vector<uint8_t> done(static_cast<size_t>(num_tasks), 0);
    options_.pool->ParallelFor(num_tasks, [&](int64_t task) {
      if (control != nullptr && control->CheckAtBoundary(failpoint::kSigTask)) return;
      FlowPrefixArena arena;
      if (task == 0) {
        arena.FillFromGraph(graph_);
      } else {
        arena.FillFromFlows(graph_,
                            permuted_flows[static_cast<size_t>(task - 1)]);
      }
      SkeletonReplayer replayer(&skeleton);
      (*counts)[static_cast<size_t>(task)] =
          replayer.Count(arena, options_.phi);
      done[static_cast<size_t>(task)] = 1;
    });
    return DonePrefix(done);
  }
  FlowPrefixArena arena;
  SkeletonReplayer replayer(&skeleton);
  int64_t completed = 0;
  for (int64_t task = 0; task < num_tasks; ++task) {
    if (control != nullptr && control->CheckAtBoundary(failpoint::kSigTask)) break;
    if (task == 0) {
      arena.FillFromGraph(graph_);
    } else {
      arena.FillFromFlows(graph_,
                          permuted_flows[static_cast<size_t>(task - 1)]);
    }
    (*counts)[static_cast<size_t>(task)] = replayer.Count(arena, options_.phi);
    ++completed;
  }
  return completed;
}

int64_t SignificanceAnalyzer::ReplayEnsembleStreaming(
    const EnumerationSkeleton& skeleton, std::vector<int64_t>* counts) const {
  const int64_t num_tasks = options_.num_random_graphs + 1;  // 0 = real
  counts->assign(static_cast<size_t>(num_tasks), 0);
  QueryControl* const control = options_.control;
  FlowPermutationStream stream(graph_, options_.seed);

  if (options_.pool == nullptr) {
    // One flow buffer, one arena, one replayer for the whole ensemble:
    // a task is draw-into-buffer, rebuild-prefixes, fused kernel pass.
    FlowPrefixArena arena;
    SkeletonReplayer replayer(&skeleton);
    std::vector<Flow> flows;
    int64_t completed = 0;
    for (int64_t task = 0; task < num_tasks; ++task) {
      if (control != nullptr && control->CheckAtBoundary(failpoint::kSigTask)) break;
      if (task == 0) {
        arena.FillFromGraph(graph_);
      } else {
        stream.NextPermutationInto(&flows);
        arena.FillFromFlows(graph_, flows);
      }
      (*counts)[static_cast<size_t>(task)] =
          replayer.Count(arena, options_.phi);
      ++completed;
    }
    return completed;
  }

  // Pool path: waves of pool-width tasks. Draws stay serial (the seeded
  // stream is one stream), fills and kernel passes parallelize; slot
  // state persists across waves so only the first wave pays allocation.
  const int64_t wave_width =
      std::max<int64_t>(1, options_.pool->num_threads());
  std::vector<FlowPrefixArena> arenas(static_cast<size_t>(wave_width));
  std::vector<std::vector<Flow>> slot_flows(static_cast<size_t>(wave_width));
  std::vector<SkeletonReplayer> replayers;
  replayers.reserve(static_cast<size_t>(wave_width));
  for (int64_t s = 0; s < wave_width; ++s) replayers.emplace_back(&skeleton);
  std::vector<uint8_t> done(static_cast<size_t>(num_tasks), 0);
  for (int64_t wave_first = 0; wave_first < num_tasks;
       wave_first += wave_width) {
    if (control != nullptr && control->ShouldStop()) break;
    const int64_t wave_limit = std::min(num_tasks, wave_first + wave_width);
    for (int64_t t = std::max<int64_t>(1, wave_first); t < wave_limit; ++t) {
      stream.NextPermutationInto(&slot_flows[static_cast<size_t>(
          t - wave_first)]);
    }
    options_.pool->ParallelFor(
        wave_limit - wave_first, [&](int64_t offset) {
          if (control != nullptr && control->CheckAtBoundary(failpoint::kSigTask)) {
            return;
          }
          const int64_t task = wave_first + offset;
          FlowPrefixArena& arena = arenas[static_cast<size_t>(offset)];
          if (task == 0) {
            arena.FillFromGraph(graph_);
          } else {
            arena.FillFromFlows(graph_,
                                slot_flows[static_cast<size_t>(offset)]);
          }
          (*counts)[static_cast<size_t>(task)] =
              replayers[static_cast<size_t>(offset)].Count(arena,
                                                           options_.phi);
          done[static_cast<size_t>(task)] = 1;
        });
  }
  return DonePrefix(done);
}

SignificanceAnalyzer::PreparedMotif SignificanceAnalyzer::Prepare(
    const Motif& motif, SharedWindowCache* cache) const {
  PreparedMotif prepared;
  prepared.enum_options.delta = options_.delta;
  prepared.enum_options.phi = options_.phi;
  // One cache for the whole ensemble, read for every motif shape: the
  // views share the real graph's timestamp storage, and the cache keys
  // on that identity, so a window list computed for any task is a hit
  // for every other — per-permutation window work drops to (almost)
  // zero.
  prepared.enum_options.shared_window_cache = cache;
  prepared.enum_options.query_control = options_.control;

  // Structural matches are flow-independent: compute once on the real
  // graph and reuse on every permutation (Sec. 6.3 observes that all
  // structural matches of G also appear in Gr). The parallel work-unit
  // path merges deterministically, so the reused list is identical for
  // any pool size.
  if (options_.reuse_matches) {
    const StructuralMatcher matcher(graph_, motif);
    prepared.matches = options_.pool != nullptr
                           ? matcher.FindAllMatchesParallel(options_.pool)
                           : matcher.FindAllMatches();
  }
  return prepared;
}

int64_t SignificanceAnalyzer::CountOn(const TimeSeriesGraph& target,
                                      const Motif& motif,
                                      const PreparedMotif& prepared) const {
  FlowMotifEnumerator enumerator(target, motif, prepared.enum_options);
  const EnumerationResult r = options_.reuse_matches
                                  ? enumerator.RunOnMatches(prepared.matches)
                                  : enumerator.Run();
  return r.num_instances;
}

SignificanceAnalyzer::MotifReport SignificanceAnalyzer::BuildReport(
    const Motif& motif, const std::vector<int64_t>& counts,
    int64_t tasks_completed) const {
  MotifReport report;
  report.motif_name = motif.name();
  report.graphs_completed = tasks_completed;
  if (tasks_completed < 1) return report;  // not even the real count ran
  report.real_count = counts[0];
  report.random_counts.reserve(static_cast<size_t>(tasks_completed - 1));
  for (int64_t i = 1; i < tasks_completed; ++i) {
    report.random_counts.push_back(
        static_cast<double>(counts[static_cast<size_t>(i)]));
  }
  if (report.random_counts.empty()) return report;  // stats undefined
  report.random_summary = Summarize(report.random_counts);
  report.z_score =
      ZScore(static_cast<double>(report.real_count), report.random_counts);
  report.p_value = EmpiricalPValue(static_cast<double>(report.real_count),
                                   report.random_counts);
  return report;
}

SignificanceAnalyzer::MotifReport SignificanceAnalyzer::Analyze(
    const Motif& motif) const {
  QueryControl* const control = options_.control;
  SharedWindowCache cache(options_.delta);
  const PreparedMotif prepared = Prepare(motif, &cache);

  // Record-once / replay-many fast path: one timestamp-only recording
  // on the real graph, then every task is a dense kernel pass. The
  // recording consults no flows and no RNG, so a bypass (trace budget)
  // falls through to the enumeration path below with the seeded stream
  // untouched — the fallback is bit-identical to skeleton_replay=false.
  if (options_.skeleton_replay) {
    EnumerationSkeleton skeleton;
    WallTimer record_timer;
    if (RecordSkeleton(motif, prepared, &cache, &skeleton)) {
      const double record_seconds = record_timer.ElapsedSeconds();
      WallTimer replay_timer;
      // Each ensemble task becomes one shuffle into a reused buffer
      // plus one prefix rebuild and one kernel pass — no graph views,
      // no per-task allocation. Draws are serial from the seeded
      // stream, so permutation i matches view i for any pool size.
      std::vector<int64_t> counts;
      const int64_t completed = ReplayEnsembleStreaming(skeleton, &counts);
      MotifReport report = BuildReport(motif, counts, completed);
      report.used_skeleton_replay = true;
      report.skeleton_edges = static_cast<int64_t>(skeleton.num_edges());
      report.record_seconds = record_seconds;
      report.replay_seconds = replay_timer.ElapsedSeconds();
      if (control != nullptr) report.termination = control->Finish(completed);
      return report;
    }
  }

  // Counting proceeds in waves of pool-width many views so that at most
  // one wave of flow arrays is alive at a time — the serial path (wave
  // width 1) keeps the one-view-at-a-time memory profile. The views are
  // still drawn serially from the single seeded stream, in wave order,
  // so view i is identical for every wave width — and identical to
  // AnalyzeAll's hoisted ensemble. The cache persists across waves: its
  // timestamp-identity keys outlive the views (the real graph owns the
  // storage), so later waves inherit every window list already built.
  Rng rng(options_.seed);
  const int64_t num_tasks = options_.num_random_graphs + 1;  // 0 = real
  const int64_t wave_width =
      options_.pool != nullptr
          ? std::max<int64_t>(1, options_.pool->num_threads())
          : 1;
  std::vector<int64_t> counts(static_cast<size_t>(num_tasks), 0);
  std::vector<uint8_t> done(static_cast<size_t>(num_tasks), 0);
  for (int64_t wave_first = 0; wave_first < num_tasks;
       wave_first += wave_width) {
    if (control != nullptr && control->ShouldStop()) break;
    const int64_t wave_limit = std::min(num_tasks, wave_first + wave_width);
    const int64_t first_random = std::max<int64_t>(1, wave_first);
    std::vector<TimeSeriesGraph> wave_views;
    wave_views.reserve(static_cast<size_t>(wave_limit - first_random));
    for (int64_t t = first_random; t < wave_limit; ++t) {
      wave_views.push_back(graph_.WithPermutedFlows(&rng));
    }
    const auto count_one = [&](int64_t offset) {
      if (control != nullptr && control->CheckAtBoundary(failpoint::kSigTask)) return;
      const int64_t task = wave_first + offset;
      const TimeSeriesGraph& target =
          task == 0 ? graph_
                    : wave_views[static_cast<size_t>(task - first_random)];
      counts[static_cast<size_t>(task)] = CountOn(target, motif, prepared);
      done[static_cast<size_t>(task)] = 1;
    };
    if (options_.pool != nullptr) {
      options_.pool->ParallelFor(wave_limit - wave_first, count_one);
    } else {
      for (int64_t offset = 0; offset < wave_limit - wave_first; ++offset) {
        count_one(offset);
      }
    }
  }
  MotifReport report = BuildReport(motif, counts, DonePrefix(done));
  if (control != nullptr) {
    report.termination = control->Finish(report.graphs_completed);
  }
  return report;
}

std::vector<SignificanceAnalyzer::MotifReport> SignificanceAnalyzer::AnalyzeAll(
    const std::vector<Motif>& motifs) const {
  // One ensemble and one warm window cache serve every motif: Analyze
  // would redraw the identical permutations per motif (same seed, same
  // serial stream), so hoisting changes no report — it only removes the
  // N-permutations-per-motif regeneration and keeps the cache warm
  // across motifs (window lists depend on the series pair and delta,
  // not on the motif shape). On the replay path the hoisted ensemble is
  // N flat flow vectors; the view ensemble is only materialized — once,
  // lazily — if some motif's recording is bypassed and the enumeration
  // fallback needs actual graphs. Holding either costs N flow arrays —
  // the price of the paper's one-set-of-randomized-datasets setup;
  // single-motif Analyze regenerates per call instead.
  QueryControl* const control = options_.control;
  SharedWindowCache cache(options_.delta);
  std::vector<std::vector<Flow>> permuted_flows;  // replay ensemble, lazy
  std::vector<TimeSeriesGraph> views;             // fallback ensemble, lazy
  bool permuted_flows_ready = false;
  bool views_ready = false;
  std::vector<MotifReport> reports;
  reports.reserve(motifs.size());
  for (const Motif& motif : motifs) {
    const PreparedMotif prepared = Prepare(motif, &cache);

    if (options_.skeleton_replay) {
      EnumerationSkeleton skeleton;
      WallTimer record_timer;
      if (RecordSkeleton(motif, prepared, &cache, &skeleton)) {
        const double record_seconds = record_timer.ElapsedSeconds();
        WallTimer replay_timer;
        if (!permuted_flows_ready) {
          permuted_flows = GeneratePermutedFlows();
          permuted_flows_ready = true;
        }
        std::vector<int64_t> counts;
        const int64_t completed =
            ReplayEnsemble(skeleton, permuted_flows, &counts);
        MotifReport report = BuildReport(motif, counts, completed);
        report.used_skeleton_replay = true;
        report.skeleton_edges = static_cast<int64_t>(skeleton.num_edges());
        report.record_seconds = record_seconds;
        report.replay_seconds = replay_timer.ElapsedSeconds();
        if (control != nullptr) {
          report.termination = control->Finish(completed);
        }
        reports.push_back(std::move(report));
        continue;
      }
    }

    if (!views_ready) {
      views = GeneratePermutedViews();
      views_ready = true;
    }
    const int64_t num_tasks = static_cast<int64_t>(views.size()) + 1;
    std::vector<int64_t> counts(static_cast<size_t>(num_tasks), 0);
    std::vector<uint8_t> done(static_cast<size_t>(num_tasks), 0);
    const auto count_one = [&](int64_t task) {
      if (control != nullptr && control->CheckAtBoundary(failpoint::kSigTask)) return;
      const TimeSeriesGraph& target =
          task == 0 ? graph_ : views[static_cast<size_t>(task - 1)];
      counts[static_cast<size_t>(task)] = CountOn(target, motif, prepared);
      done[static_cast<size_t>(task)] = 1;
    };
    if (options_.pool != nullptr) {
      options_.pool->ParallelFor(num_tasks, count_one);
    } else {
      for (int64_t task = 0; task < num_tasks; ++task) count_one(task);
    }
    MotifReport report = BuildReport(motif, counts, DonePrefix(done));
    if (control != nullptr) {
      report.termination = control->Finish(report.graphs_completed);
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace flowmotif
