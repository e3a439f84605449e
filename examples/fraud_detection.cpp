// Fraud-detection scenario: the paper's introduction motivates flow
// motifs with Financial Intelligence Units hunting suspicious transfer
// patterns — cyclic transactions and chains of significant transfers
// within a short window (Sec. 1). An FIU does not get its transaction
// log as a static file: transfers arrive continuously, and the analyst
// wants standing queries whose answers stay current as the stream
// grows.
//
// This example runs that continuous deployment end to end:
//  1. generates a bitcoin-like interaction network and replays it as a
//     time-ordered transfer stream;
//  2. seeds a QueryEngine with the first half (the "historical
//     backfill") and opens a live cyclic-motif query on it
//     (QueryEngine::OpenStream -> StreamingMotifMonitor);
//  3. replays the remaining transfers in batches, sealing an epoch per
//     batch: the monitor maintains instance counts, a sliding-horizon
//     live count, and the top-k highest-flow cycles incrementally, and
//     fires an alert the moment a cycle settles above the alert bound;
//  4. prints the final standing-query answers an analyst would see.
//
// Run: ./build/examples/fraud_detection [--scale=0.2] [--delta=600]
//      [--k=5] [--batch=400] [--horizon=2592000]
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/motif_catalog.h"
#include "engine/query_engine.h"
#include "gen/presets.h"
#include "stream/streaming_monitor.h"
#include "util/flags.h"

using namespace flowmotif;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddDouble("scale", 0.2, "dataset scale relative to the preset");
  flags.AddInt64("delta", 600, "max window length (seconds)");
  flags.AddInt64("k", 5, "how many top cycles to track live");
  flags.AddInt64("batch", 400, "transfers sealed per stream epoch");
  flags.AddInt64("horizon", 30 * 86400,
                 "sliding horizon (seconds) for the live instance count");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::cerr << s << "\n" << flags.HelpString();
    return 1;
  }
  // Validate the numeric flags before generating anything: a bad value
  // gets one line naming the flag, not a library CHECK abort or (for
  // --batch) an endless run of empty epochs.
  const auto reject = [](const std::string& message) {
    std::cerr << "INVALID_ARGUMENT: " << message << "\n";
    return 1;
  };
  const double scale = flags.GetDouble("scale");
  if (!(scale > 0.0) || !std::isfinite(scale)) {  // NaN too
    return reject("--scale must be positive and finite");
  }
  if (flags.GetInt64("delta") < 0) {
    return reject("--delta must be non-negative");
  }
  if (flags.GetInt64("batch") < 1) return reject("--batch must be >= 1");
  if (flags.GetInt64("horizon") < 0) {
    return reject("--horizon must be non-negative");
  }

  const DatasetPreset& preset = GetPreset(DatasetKind::kBitcoin);
  const TimeSeriesGraph full = GenerateDataset(preset, scale);
  std::cout << "Transaction trace: " << full.DebugString() << "\n";

  // Flatten the generated graph back into its transfer trace, ordered
  // by time — the stream a payment processor would deliver.
  std::vector<InteractionGraph::Edge> trace;
  for (const TimeSeriesGraph::PairEdge& pair : full.pairs()) {
    for (size_t i = 0; i < pair.series.size(); ++i) {
      const Interaction x = pair.series.at(i);
      trace.push_back({pair.src, pair.dst, x.t, x.f});
    }
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const InteractionGraph::Edge& a,
                      const InteractionGraph::Edge& b) { return a.t < b.t; });

  // Historical backfill: the first half of the trace seeds the engine.
  const size_t backfill = trace.size() / 2;
  InteractionGraph seed;
  seed.EnsureVertices(full.num_vertices());
  for (size_t i = 0; i < backfill; ++i) {
    const InteractionGraph::Edge& e = trace[i];
    Status st = seed.AddEdge(e.src, e.dst, e.t, e.f);
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
  }
  const TimeSeriesGraph seed_graph = TimeSeriesGraph::Build(seed);
  const QueryEngine engine(seed_graph);

  // The standing query: closed money cycles (M(3,3)) of significant
  // flow inside a delta-length window, with a live top-k, a sliding
  // horizon, and an alert bound at 8x the preset's flow threshold.
  const Motif cycle = *MotifCatalog::ByName("M(3,3)");
  StreamOptions sopts;
  sopts.delta = flags.GetInt64("delta");
  sopts.phi = preset.default_phi;
  sopts.k = flags.GetInt64("k");
  sopts.horizon = flags.GetInt64("horizon");
  sopts.alert_min_flow = 8 * preset.default_phi;
  std::unique_ptr<StreamingMotifMonitor> monitor =
      engine.OpenStream(cycle, sopts);

  int64_t num_alerts = 0;
  monitor->SetAlertCallback([&num_alerts](
                                const StreamingMotifMonitor::Alert& alert) {
    ++num_alerts;
    std::cout << "  ALERT epoch " << alert.epoch << ": cycle users(";
    for (size_t j = 0; j < alert.instance.binding.size(); ++j) {
      std::cout << (j ? "," : "") << alert.instance.binding[j];
    }
    std::cout << ") flow=" << alert.flow << " settled at t=" << alert.end_time
              << "\n";
  });

  std::cout << "Backfill (" << backfill << " transfers): "
            << monitor->TotalInstances() << " cycle instances, "
            << monitor->num_matches() << " candidate rings\n\n";

  // Live replay: seal an epoch per batch of arriving transfers.
  const size_t batch = static_cast<size_t>(flags.GetInt64("batch"));
  std::cout << "Replaying " << trace.size() - backfill << " transfers in "
            << "epochs of " << batch << " (delta=" << sopts.delta
            << "s, horizon=" << sopts.horizon << "s, alert flow >= "
            << sopts.alert_min_flow << "):\n";
  // Ingest is an untrusted boundary: a malformed transfer (as a feed
  // glitch would produce) is rejected edge-by-edge without poisoning
  // the stream — demonstrate once, then replay the real trace.
  const Status rejected = monitor->Append(3, 7, -5, 0.0);
  std::cout << "Feed glitch rejected: " << rejected << "\n";

  size_t cursor = backfill;
  while (cursor < trace.size()) {
    const size_t end = std::min(cursor + batch, trace.size());
    for (; cursor < end; ++cursor) {
      const Status appended = monitor->Append(trace[cursor]);
      if (!appended.ok()) {
        std::cerr << "dropping transfer " << cursor << ": " << appended
                  << "\n";
      }
    }
    const StreamingMotifMonitor::EpochStats stats = monitor->SealEpoch();
    std::cout << "  epoch " << stats.epoch << ": +" << stats.num_appended
              << " transfers, revisited " << stats.num_matches_revisited
              << "/" << stats.num_matches_total << " rings (+"
              << stats.num_new_matches << " new), settled "
              << stats.num_instances_settled << " -> total "
              << monitor->TotalInstances() << ", live "
              << monitor->LiveInstances() << "\n";
  }

  std::cout << "\nStanding top-" << sopts.k
            << " cycles after the full stream:\n";
  const std::vector<TopKEntry> top = monitor->TopK();
  for (size_t i = 0; i < top.size(); ++i) {
    const TopKEntry& entry = top[i];
    std::cout << "  #" << i + 1 << " flow=" << entry.flow << " users(";
    for (size_t j = 0; j < entry.instance.binding.size(); ++j) {
      std::cout << (j ? "," : "") << entry.instance.binding[j];
    }
    std::cout << ") window=[" << entry.instance.StartTime() << ","
              << entry.instance.EndTime() << "]\n";
  }
  std::cout << "\n" << num_alerts << " alerts fired; "
            << monitor->LiveInstances() << " of "
            << monitor->TotalInstances()
            << " instances still inside the horizon\n";
  return 0;
}
