// Passenger-flow scenario: the paper motivates chain motifs with
// region-to-region passenger movements (M(4,3) "chains of region-to-
// region movements in a passenger flow network", Sec. 6).
//
// This example generates a passenger-like zone network and:
//  1. compares chain vs. cycle motif prevalence (acyclic flows dominate
//     taxi traffic, per Sec. 6.2.2);
//  2. finds the single heaviest passenger relay with the DP module;
//  3. tracks how the best relay flow evolves window by window (the
//     per-window top-1 extensibility of Sec. 5.1).
//
// Run: ./build/examples/passenger_flows [--scale=0.4] [--delta=900]
#include <cmath>
#include <iomanip>
#include <iostream>
#include <string>

#include "core/dp.h"
#include "core/enumerator.h"
#include "core/motif_catalog.h"
#include "core/structural_match.h"
#include "gen/presets.h"
#include "util/flags.h"

using namespace flowmotif;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddDouble("scale", 0.4, "dataset scale relative to the preset");
  flags.AddInt64("delta", 900, "max window length (seconds)");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::cerr << s << "\n" << flags.HelpString();
    return 1;
  }
  // Validate the numeric flags before generating anything: a bad value
  // gets one line naming the flag, not a library CHECK abort.
  const auto reject = [](const std::string& message) {
    std::cerr << "INVALID_ARGUMENT: " << message << "\n";
    return 1;
  };
  const double scale = flags.GetDouble("scale");
  if (!(scale > 0.0) || !std::isfinite(scale)) {  // NaN too
    return reject("--scale must be positive and finite");
  }
  const Timestamp delta = flags.GetInt64("delta");
  if (delta < 0) return reject("--delta must be non-negative");

  const DatasetPreset& preset = GetPreset(DatasetKind::kPassenger);
  TimeSeriesGraph graph = GenerateDataset(preset, scale);
  std::cout << "Zone network: " << graph.DebugString() << "\n\n";

  // --- 1. Chains dominate cycles in passenger traffic. ------------------
  std::cout << "Motif prevalence (delta=" << delta
            << "s, phi=" << preset.default_phi << "):\n";
  for (const char* name : {"M(3,2)", "M(4,3)", "M(3,3)", "M(4,4)A"}) {
    Motif motif = *MotifCatalog::ByName(name);
    EnumerationOptions options;
    options.delta = delta;
    options.phi = preset.default_phi;
    EnumerationResult result =
        FlowMotifEnumerator(graph, motif, options).Run();
    std::cout << "  " << std::left << std::setw(8) << name
              << (motif.HasCycle() ? "cycle " : "chain ")
              << result.num_instances << " instances\n";
  }

  // --- 2. The heaviest zone-to-zone relay (top-1 via DP). ---------------
  Motif chain = *MotifCatalog::ByName("M(4,3)");
  MaxFlowDpSearcher dp(graph, chain, delta);
  MaxFlowDpSearcher::Result best = dp.Run();
  if (!best.found) {
    std::cout << "\nNo relay instance found; increase --scale.\n";
    return 0;
  }
  std::cout << "\nHeaviest passenger relay (M(4,3), DP module):\n  zones ";
  for (size_t i = 0; i < best.binding.size(); ++i) {
    std::cout << (i ? " -> " : "") << best.binding[i];
  }
  std::cout << "\n  passengers=" << best.max_flow << " window=["
            << best.window.start << "," << best.window.end << "]\n  "
            << best.best.ToString() << "\n";

  // --- 3. Per-window evolution on the winning zone chain. ---------------
  std::cout << "\nBest relay flow per window on that chain:\n";
  int shown = 0;
  for (const auto& wb : dp.RunPerWindow(best.binding)) {
    if (!wb.found) continue;
    std::cout << "  [" << std::setw(8) << wb.window.start << ","
              << std::setw(8) << wb.window.end << "] flow=" << wb.max_flow
              << "\n";
    if (++shown >= 10) {
      std::cout << "  ...\n";
      break;
    }
  }
  return 0;
}
