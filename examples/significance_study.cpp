// Significance study: reproduces the Sec. 6.3 methodology on a generated
// facebook-like network — permute the flow values across all edges,
// re-count motif instances, and report z-scores and empirical p-values
// per motif (the Fig. 14 analysis in miniature).
//
// The whole catalog is analyzed with ONE AnalyzeAll call, the paper's
// setup: a single permutation ensemble (and one cross-graph window
// cache) serves every motif instead of being regenerated per motif.
// The record/replay columns show where the time goes under skeleton
// replay — the timestamp-only trace is recorded once on the real graph,
// then the whole ensemble is answered by dense flow replays.
//
// Run: ./build/examples/significance_study [--scale=0.15] [--randomizations=10]
#include <iomanip>
#include <iostream>
#include <vector>

#include "core/motif_catalog.h"
#include "core/significance.h"
#include "gen/presets.h"
#include "util/flags.h"

using namespace flowmotif;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddDouble("scale", 0.15, "dataset scale relative to the preset");
  flags.AddInt64("randomizations", 10, "number of flow-permuted graphs");
  flags.AddInt64("seed", 1, "permutation seed");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::cerr << s << "\n" << flags.HelpString();
    return 1;
  }

  const DatasetPreset& preset = GetPreset(DatasetKind::kFacebook);
  TimeSeriesGraph graph = GenerateDataset(preset, flags.GetDouble("scale"));
  std::cout << "Interaction network: " << graph.DebugString() << "\n\n";

  SignificanceAnalyzer::Options options;
  options.num_random_graphs =
      static_cast<int>(flags.GetInt64("randomizations"));
  options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  options.delta = preset.default_delta;
  options.phi = preset.default_phi;
  SignificanceAnalyzer analyzer(graph, options);

  const std::vector<Motif> motifs = MotifCatalog::All();
  const std::vector<SignificanceAnalyzer::MotifReport> reports =
      analyzer.AnalyzeAll(motifs);

  std::cout << "Motif significance vs " << options.num_random_graphs
            << " flow-permuted graphs (delta=" << options.delta
            << ", phi=" << options.phi << "):\n";
  std::cout << std::left << std::setw(9) << "motif" << std::right
            << std::setw(8) << "real" << std::setw(10) << "rnd-mean"
            << std::setw(9) << "rnd-sd" << std::setw(9) << "z" << std::setw(8)
            << "p" << std::setw(8) << "path" << std::setw(11) << "record-ms"
            << "\n";

  for (const SignificanceAnalyzer::MotifReport& report : reports) {
    std::cout << std::left << std::setw(9) << report.motif_name << std::right
              << std::setw(8) << report.real_count << std::setw(10)
              << std::fixed << std::setprecision(1)
              << report.random_summary.mean << std::setw(9)
              << report.random_summary.stddev << std::setw(9)
              << std::setprecision(2) << report.z_score << std::setw(8)
              << report.p_value;
    if (report.used_skeleton_replay) {
      std::cout << std::setw(8) << "replay" << std::setw(11)
                << report.record_seconds * 1e3;
    } else {
      // Trace budget exceeded (or replay disabled): this motif is
      // enumerated on each graph of the pass instead.
      std::cout << std::setw(8) << "enum" << std::setw(11) << "-";
    }
    std::cout << "\n";
  }
  // replay_seconds is the one ensemble pass every report shares.
  std::cout << "\nEnsemble pass: " << std::setprecision(2)
            << reports.front().replay_seconds * 1e3 << " ms for all "
            << reports.size() << " motifs on the real graph and "
            << options.num_random_graphs << " permutations.\n";
  std::cout << "\nHigh z-scores with p=0 mean the real network contains far"
               "\nmore high-flow motif instances than chance: flow is being"
               "\ntransferred along paths, not generated independently."
               "\nrecord-ms is paid once per motif on the real graph; the"
               "\nensemble pass draws each permutation once and replays (or"
               "\nenumerates) every motif on it.\n";
  return 0;
}
