// Reproduces Fig. 13: scalability to dataset size using time-prefix
// samples — B1..B5 (bitcoin), F1..F5 (facebook), T1..T4 (passenger) —
// each covering a growing prefix of the dataset's time span, like the
// paper's month-prefix samples. Reports instances and runtime per motif
// per sample at default delta/phi, all through the QueryEngine facade
// (so --threads=N parallelizes every cell).
//
// A second section goes beyond the paper: per-phase thread scalability.
// For each preset it times phase P1 (the one flat structural-match
// scan) serial vs parallel over the work-unit decomposition, checks the
// match lists are byte-identical, then records the skeletons of the
// preset's delta sweep without a pool and on a --threads pool (the
// recording under RunSweep and significance), checks the traces are
// byte-identical, and runs threshold enumeration and top-k over the
// precomputed matches with one thread and with --threads workers
// (isolating the phase-P2 speedup), checking that instance counts and
// top-k flows are byte-identical too.
//
// Paper shape: cost grows with data size but at a slower pace than the
// number of instances.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "core/match_list.h"
#include "core/motif_catalog.h"
#include "core/skeleton.h"
#include "core/structural_match.h"
#include "engine/query_engine.h"
#include "graph/time_slice.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace flowmotif;
using namespace flowmotif::bench;

namespace {

std::string Speedup(double serial_seconds, double parallel_seconds) {
  return FormatDouble(serial_seconds / std::max(parallel_seconds, 1e-9), 2) +
         "x";
}

bool SameMatches(const MatchList& a, const MatchList& b) {
  if (a.size() != b.size()) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    if (!std::equal(a[i].begin(), a[i].end(), b[i].begin(), b[i].end())) {
      return false;
    }
  }
  return true;
}

/// Whole-trace byte equality of two recordings of one delta grid.
bool SameRecording(const std::vector<EnumerationSkeleton>& a,
                   const std::vector<EnumerationSkeleton>& b) {
  if (a.size() != b.size()) return false;
  for (size_t d = 0; d < a.size(); ++d) {
    const EnumerationSkeleton& x = a[d];
    const EnumerationSkeleton& y = b[d];
    if (x.recorded() != y.recorded() || x.num_edges() != y.num_edges() ||
        x.num_states() != y.num_states() || x.num_roots() != y.num_roots() ||
        x.match_viability() != y.match_viability()) {
      return false;
    }
    const size_t edges = x.num_edges();
    if (!std::equal(x.edge_lo(), x.edge_lo() + edges, y.edge_lo()) ||
        !std::equal(x.edge_hi(), x.edge_hi() + edges, y.edge_hi()) ||
        !std::equal(x.edge_child(), x.edge_child() + edges, y.edge_child()) ||
        !std::equal(x.state_begin(), x.state_begin() + x.num_states() + 1,
                    y.state_begin()) ||
        !std::equal(x.roots(), x.roots() + x.num_roots(), y.roots())) {
      return false;
    }
  }
  return true;
}

/// One serial-vs-parallel comparison; returns false on any mismatch.
bool CompareThreadScaling(const TimeSeriesGraph& graph, const Motif& motif,
                          const DatasetPreset& preset) {
  const QueryEngine engine(graph);
  const StructuralMatcher matcher(graph, motif);

  // Phase P1: the one flat scan, serial vs over work-unit ranges on a
  // pool.
  WallTimer p1_serial_timer;
  const MatchList serial_matches =
      FindMatchesControlled(matcher, /*pool=*/nullptr, /*control=*/nullptr);
  const double p1_serial = p1_serial_timer.ElapsedSeconds();

  ThreadPool p1_pool(BenchThreads());
  WallTimer p1_parallel_timer;
  const MatchList parallel_matches =
      FindMatchesControlled(matcher, &p1_pool, /*control=*/nullptr);
  const double p1_parallel = p1_parallel_timer.ElapsedSeconds();
  bool identical = SameMatches(serial_matches, parallel_matches);

  // Skeleton recording of the preset's delta sweep, largest delta
  // first, without a pool vs over match ranges on the P1 pool.
  std::vector<Timestamp> deltas = preset.delta_sweep;
  std::sort(deltas.rbegin(), deltas.rend());
  std::vector<EnumerationSkeleton> serial_record;
  WallTimer record_serial_timer;
  EnumerationSkeleton::RecordSweepDescending(
      graph, motif, deltas, serial_matches, EnumerationSkeleton::Options(),
      &serial_record);
  const double record_serial = record_serial_timer.ElapsedSeconds();
  std::vector<EnumerationSkeleton> parallel_record;
  WallTimer record_parallel_timer;
  EnumerationSkeleton::RecordSweepDescending(
      graph, motif, deltas, serial_matches, EnumerationSkeleton::Options(),
      &parallel_record, /*control=*/nullptr, &p1_pool);
  const double record_parallel = record_parallel_timer.ElapsedSeconds();
  identical = identical && SameRecording(serial_record, parallel_record);

  const std::vector<MatchBinding> matches = matcher.FindAllMatches();

  // Phase P2 in isolation, over the precomputed matches.
  QueryOptions enumerate = BenchQueryOptions(
      QueryMode::kEnumerate, preset.default_delta, preset.default_phi);
  QueryOptions topk =
      BenchQueryOptions(QueryMode::kTopK, preset.default_delta, 0.0);
  topk.k = 10;

  enumerate.num_threads = 1;
  topk.num_threads = 1;
  const QueryResult serial_enum =
      engine.RunOnMatches(motif, matches, enumerate);
  const QueryResult serial_topk = engine.RunOnMatches(motif, matches, topk);

  enumerate.num_threads = BenchThreads();
  topk.num_threads = BenchThreads();
  const QueryResult parallel_enum =
      engine.RunOnMatches(motif, matches, enumerate);
  const QueryResult parallel_topk =
      engine.RunOnMatches(motif, matches, topk);

  identical = identical &&
              serial_enum.stats.num_instances ==
                  parallel_enum.stats.num_instances &&
              serial_topk.topk.size() == parallel_topk.topk.size();
  if (identical) {
    for (size_t i = 0; i < serial_topk.topk.size(); ++i) {
      identical = identical &&
                  serial_topk.topk[i].flow == parallel_topk.topk[i].flow;
    }
  }

  PrintRow({motif.name(), FormatCount(serial_enum.stats.num_instances),
            FormatSeconds(p1_serial), FormatSeconds(p1_parallel),
            Speedup(p1_serial, p1_parallel), FormatSeconds(record_serial),
            FormatSeconds(record_parallel),
            Speedup(record_serial, record_parallel),
            FormatSeconds(serial_enum.wall_seconds),
            FormatSeconds(parallel_enum.wall_seconds),
            Speedup(serial_enum.wall_seconds, parallel_enum.wall_seconds),
            FormatSeconds(serial_topk.wall_seconds),
            FormatSeconds(parallel_topk.wall_seconds),
            Speedup(serial_topk.wall_seconds, parallel_topk.wall_seconds),
            identical ? "yes" : "MISMATCH"});
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  InitBenchFlags(argc, argv);

  for (const DatasetPreset& preset : AllPresets()) {
    const TimeSeriesGraph& graph = BenchGraph(preset);
    const std::vector<Timestamp> cuts =
        EqualTimePrefixes(graph, preset.num_time_samples);
    // B1..B5, F1..F5, T1..T4 as in the paper ("T" for the taxi network).
    const char sample_letter =
        preset.kind == DatasetKind::kBitcoin    ? 'B'
        : preset.kind == DatasetKind::kFacebook ? 'F'
                                                : 'T';

    std::vector<TimeSeriesGraph> samples;
    std::vector<std::string> header{"motif"};
    for (size_t i = 0; i < cuts.size(); ++i) {
      samples.push_back(SliceByMaxTime(graph, cuts[i]));
      header.push_back(std::string(1, sample_letter) +
                       std::to_string(i + 1));
    }

    PrintHeader("Fig. 13 (" + preset.name + "): sample sizes");
    {
      std::vector<std::string> row{"#edges"};
      for (const auto& sample : samples) {
        row.push_back(FormatCount(sample.ComputeStats().num_interactions));
      }
      PrintRow(row);
    }

    PrintHeader("Fig. 13 (" + preset.name + "): #instances per sample");
    PrintRow(header);
    std::vector<std::vector<std::string>> time_rows;
    for (const Motif& motif : MotifCatalog::All()) {
      std::vector<std::string> count_row{motif.name()};
      std::vector<std::string> time_row{motif.name()};
      for (const auto& sample : samples) {
        const QueryEngine engine(sample);
        const QueryResult result = engine.Run(
            motif, BenchQueryOptions(QueryMode::kEnumerate,
                                     preset.default_delta,
                                     preset.default_phi));
        count_row.push_back(FormatCount(result.stats.num_instances));
        time_row.push_back(FormatSeconds(result.wall_seconds));
      }
      PrintRow(count_row);
      time_rows.push_back(time_row);
    }

    PrintHeader("Fig. 13 (" + preset.name + "): runtime per sample");
    PrintRow(header);
    for (const auto& row : time_rows) PrintRow(row);
  }

  // Beyond the paper: per-phase thread scalability on the full datasets.
  bool all_identical = true;
  for (const DatasetPreset& preset : AllPresets()) {
    const TimeSeriesGraph& graph = BenchGraph(preset);
    PrintHeader("Per-phase thread scalability (" + preset.name + "): 1 vs " +
                std::to_string(BenchThreads()) + " threads");
    PrintRow({"motif", "#inst", "P1 1t", "P1 Nt", "P1 spd", "record 1t",
              "record Nt", "record spd", "enum 1t", "enum Nt", "enum spd",
              "topk 1t", "topk Nt", "topk spd", "identical"});
    for (const std::string& name : {std::string("M(3,2)"),
                                    std::string("M(3,3)")}) {
      all_identical =
          CompareThreadScaling(graph, *MotifCatalog::ByName(name), preset) &&
          all_identical;
    }
  }

  std::cout << "\nPaper shape: instances and cost grow with the sample; "
               "cost grows at the slower pace.\n";
  if (!all_identical) {
    std::cout << "ERROR: parallel results diverged from serial.\n";
    return 1;
  }
  std::cout << "Parallel results byte-identical to serial for every "
               "preset and motif.\n";
  return 0;
}
