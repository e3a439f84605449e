#include "core/significance.h"

#include <algorithm>
#include <optional>

#include "core/enumerator.h"
#include "core/structural_match.h"
#include "core/window_cursor.h"
#include "util/failpoint.h"
#include "util/logging.h"
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

int64_t SignificanceAnalyzer::CountEnsemble(
    const std::vector<Motif>& motifs,
    const std::vector<PreparedMotif>& prepared,
    std::vector<std::vector<int64_t>>* counts) const {
  const int64_t num_tasks = options_.num_random_graphs + 1;  // 0 = real
  counts->assign(motifs.size(),
                 std::vector<int64_t>(static_cast<size_t>(num_tasks), 0));
  QueryControl* const control = options_.control;

  std::vector<size_t> replayed;
  std::vector<size_t> enumerated;
  for (size_t m = 0; m < motifs.size(); ++m) {
    (prepared[m].skeleton.recorded() ? replayed : enumerated).push_back(m);
  }
  EnumerationOptions enum_options;
  enum_options.delta = options_.delta;
  enum_options.phi = options_.phi;
  enum_options.query_control = control;

  // Per-slot state persists across waves, so only the first wave
  // allocates: the slot's permutation, its prefix arena and one
  // replayer per recorded motif.
  struct Slot {
    std::vector<Flow> flows;
    FlowPrefixArena arena;
    std::vector<SkeletonReplayer> replayers;
  };
  const int64_t wave_width =
      options_.pool != nullptr
          ? std::max<int64_t>(1, options_.pool->num_threads())
          : 1;
  std::vector<Slot> slots(static_cast<size_t>(wave_width));
  for (Slot& slot : slots) {
    slot.replayers.reserve(replayed.size());
    for (const size_t m : replayed) {
      slot.replayers.emplace_back(&prepared[m].skeleton);
    }
  }

  const auto run_task = [&](int64_t task, Slot* slot) {
    if (!replayed.empty()) {
      if (task == 0) {
        slot->arena.FillFromGraph(graph_);
      } else {
        slot->arena.FillFromFlows(graph_, slot->flows);
      }
      for (size_t i = 0; i < replayed.size(); ++i) {
        (*counts)[replayed[i]][static_cast<size_t>(task)] =
            slot->replayers[i].Count(slot->arena, options_.phi);
      }
    }
    if (enumerated.empty()) return;
    std::optional<TimeSeriesGraph> view;
    const TimeSeriesGraph& target =
        task == 0 ? graph_ : view.emplace(graph_.WithFlows(slot->flows));
    for (const size_t m : enumerated) {
      const FlowMotifEnumerator enumerator(target, motifs[m], enum_options);
      WindowReader windows = enumerator.NewReader();
      FlowMotifEnumerator::Scratch scratch;
      EnumerationResult result;
      const MatchList& matches = prepared[m].matches;
      for (int64_t i = 0; i < matches.size(); ++i) {
        enumerator.EnumerateMatch(matches[i], nullptr, &result, &windows,
                                  &scratch);
      }
      (*counts)[m][static_cast<size_t>(task)] = result.num_instances;
    }
  };

  // Draws stay serial — the seeded stream is one stream, so
  // permutation i is identical for any pool size — while fills, replays
  // and enumerations fan out across the wave.
  FlowPermutationStream stream(graph_, options_.seed);
  std::vector<uint8_t> done(static_cast<size_t>(num_tasks), 0);
  for (int64_t wave_first = 0; wave_first < num_tasks;
       wave_first += wave_width) {
    if (control != nullptr && control->ShouldStop()) break;
    const int64_t wave_size = std::min(wave_width, num_tasks - wave_first);
    for (int64_t offset = 0; offset < wave_size; ++offset) {
      if (wave_first + offset == 0) continue;
      stream.NextPermutationInto(&slots[static_cast<size_t>(offset)].flows);
    }
    const auto run_slot = [&](int64_t offset) {
      if (control != nullptr &&
          control->CheckAtBoundary(failpoint::kSigTask)) {
        return;
      }
      const int64_t task = wave_first + offset;
      run_task(task, &slots[static_cast<size_t>(offset)]);
      done[static_cast<size_t>(task)] = 1;
    };
    if (options_.pool != nullptr) {
      options_.pool->ParallelFor(wave_size, run_slot);
    } else {
      for (int64_t offset = 0; offset < wave_size; ++offset) run_slot(offset);
    }
  }
  return DonePrefix(done);
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
  return AnalyzeAll({motif}).front();
}

std::vector<SignificanceAnalyzer::MotifReport> SignificanceAnalyzer::AnalyzeAll(
    const std::vector<Motif>& motifs) const {
  QueryControl* const control = options_.control;

  // Flow-independent setup, once per motif on the real graph: the
  // structural matches (Sec. 6.3 observes that all structural matches
  // of G also appear in Gr) and the recording. Recording consults no
  // flows and no RNG, so a bypass leaves the seeded stream — and the
  // motif's counts — exactly as skeleton_replay = false produces them.
  std::vector<PreparedMotif> prepared(motifs.size());
  EnumerationSkeleton::Options skeleton_options;
  skeleton_options.max_edges = options_.max_skeleton_edges;
  for (size_t m = 0; m < motifs.size(); ++m) {
    if (control != nullptr && control->ShouldStop()) break;
    PreparedMotif& setup = prepared[m];
    setup.matches = FindMatchesControlled(
        StructuralMatcher(graph_, motifs[m]), options_.pool, control);
    if (!options_.skeleton_replay) continue;
    WallTimer record_timer;
    if (setup.skeleton.Record(graph_, motifs[m], options_.delta,
                              setup.matches, control, skeleton_options,
                              options_.pool)) {
      setup.matches = MatchList();  // the trace is all replay needs
    }
    setup.record_seconds = record_timer.ElapsedSeconds();
  }

  // A hard stop during a scan or a recording left some motif without
  // its full match list or trace; no count over it would be exact, so
  // no ensemble task runs. (A soft max_matches truncation is different:
  // counts over the kept prefix are exact for that prefix.)
  std::vector<std::vector<int64_t>> counts(motifs.size());
  int64_t completed = 0;
  double pass_seconds = 0.0;
  if (control == nullptr || !control->ShouldStop()) {
    WallTimer pass_timer;
    completed = CountEnsemble(motifs, prepared, &counts);
    pass_seconds = pass_timer.ElapsedSeconds();
  }

  std::vector<MotifReport> reports;
  reports.reserve(motifs.size());
  for (size_t m = 0; m < motifs.size(); ++m) {
    MotifReport report = BuildReport(motifs[m], counts[m], completed);
    const EnumerationSkeleton& skeleton = prepared[m].skeleton;
    if (skeleton.recorded()) {
      report.used_skeleton_replay = true;
      report.skeleton_edges = static_cast<int64_t>(skeleton.num_edges());
      report.record_seconds = prepared[m].record_seconds;
    }
    report.replay_seconds = pass_seconds;
    if (control != nullptr) report.termination = control->Finish(completed);
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace flowmotif
