// motif_search_cli — run flow motif queries against an edge-list file
// from the command line. The Swiss-army knife for adopting the library
// on your own interaction data. All modes go through the QueryEngine
// facade, so --threads=N parallelizes any of them with results
// byte-identical to the serial run.
//
// Input format: one interaction per line, "src dst timestamp flow",
// '#' comments allowed (see graph/graph_io.h).
//
// Usage:
//   motif_search_cli <edges.txt> --motif="M(3,3)" --delta=600 --phi=5
//   motif_search_cli <edges.txt> --motif="0-1-2-3" --mode=topk --k=10
//   motif_search_cli <edges.txt> --motif="0>1,0>2" --mode=count
//   motif_search_cli <edges.txt> --motif="M(4,3)" --mode=top1 --threads=8
//
// Modes:
//   enumerate    print every instance (capped by --limit)    [default]
//   count        count instances without constructing them
//   topk         the --k instances with the largest flow
//   top1         the single best instance via the DP module
//   significance z-score / p-value vs flow-permuted graphs
#include <iostream>
#include <limits>
#include <string>

#include "core/motif_catalog.h"
#include "engine/query_engine.h"
#include "graph/graph_io.h"
#include "util/cancellation.h"
#include "util/flags.h"

using namespace flowmotif;

namespace {

/// Catalog name ("M(3,3)"), path notation ("0-1-2-0"), or edge-list
/// notation ("0>1,0>2").
StatusOr<Motif> ResolveMotif(const std::string& spec) {
  StatusOr<Motif> catalog = MotifCatalog::ByName(spec);
  if (catalog.ok()) return catalog;
  return Motif::Parse(spec);
}

StatusOr<QueryMode> ResolveMode(const std::string& mode) {
  if (mode == "enumerate") return QueryMode::kEnumerate;
  if (mode == "count") return QueryMode::kCount;
  if (mode == "topk") return QueryMode::kTopK;
  if (mode == "top1") return QueryMode::kTop1;
  if (mode == "significance") return QueryMode::kSignificance;
  return Status::InvalidArgument(
      "unknown --mode=" + mode +
      " (expected enumerate|count|topk|top1|significance)");
}

void PrintInstance(const MotifInstance& instance) {
  std::cout << "  vertices(";
  for (size_t i = 0; i < instance.binding.size(); ++i) {
    std::cout << (i ? "," : "") << instance.binding[i];
  }
  std::cout << ") flow=" << instance.InstanceFlow()
            << " span=" << instance.Span() << " " << instance.ToString()
            << "\n";
}

void PrintFooter(const QueryResult& result) {
  std::cout << "[" << result.threads_used << " thread"
            << (result.threads_used == 1 ? "" : "s") << ", ";
  if (result.mode == QueryMode::kSignificance) {
    // Significance parallelizes over whole graphs, not match batches,
    // and does not split its time into the two phases.
    std::cout << result.significance.random_counts.size() + 1
              << " graph counts, " << result.wall_seconds << "s wall]\n";
    return;
  }
  // P1 is the wall time of the scan before P2; P2 sums the batch tasks,
  // its wall time at one thread and a sum across workers above it.
  std::cout << result.num_batches << " batches, " << result.wall_seconds
            << "s wall, P1 " << result.stats.phase1_seconds << "s scan + P2 "
            << result.stats.phase2_seconds << "s summed batch time]\n";
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("motif", "M(3,2)",
                  "catalog name, path (0-1-2), or edge list (0>1,0>2)");
  flags.AddString("mode", "enumerate",
                  "enumerate|count|topk|top1|significance");
  flags.AddInt64("delta", 600, "max time window length");
  flags.AddDouble("phi", 0.0, "min aggregated flow per motif edge");
  flags.AddInt64("k", 10, "k for --mode=topk");
  flags.AddInt64("limit", 20, "max instances printed in enumerate mode");
  flags.AddBool("strict", false, "enforce strict Def. 3.3 maximality");
  flags.AddInt64("threads", 1,
                 "phase-P2 worker threads (0 = all hardware threads)");
  flags.AddInt64("random-graphs", 20,
                 "randomized graphs for --mode=significance");
  flags.AddInt64("seed", 1, "RNG seed for --mode=significance");
  flags.AddInt64("deadline_ms", 0,
                 "wall-clock budget in milliseconds (0 = none); an "
                 "expired run reports its partial result");
  flags.AddInt64("max_matches", -1,
                 "cap on phase-P1 structural matches (-1 = unlimited); "
                 "the query answers exactly over the first N matches");

  Status parse_status = flags.Parse(argc, argv);
  if (!parse_status.ok()) {
    std::cerr << parse_status << "\n\n"
              << "usage: motif_search_cli <edges.txt> [flags]\n"
              << flags.HelpString();
    return 1;
  }
  if (flags.positional().size() != 1) {
    std::cerr << "usage: motif_search_cli <edges.txt> [flags]\n"
              << flags.HelpString();
    return 1;
  }

  StatusOr<InteractionGraph> loaded =
      LoadInteractionGraph(flags.positional()[0]);
  if (!loaded.ok()) {
    std::cerr << loaded.status() << "\n";
    return 1;
  }
  TimeSeriesGraph graph = TimeSeriesGraph::Build(*loaded);
  std::cout << "Loaded " << graph.DebugString() << "\n";

  StatusOr<Motif> motif = ResolveMotif(flags.GetString("motif"));
  if (!motif.ok()) {
    std::cerr << motif.status() << "\n";
    return 1;
  }
  StatusOr<QueryMode> mode = ResolveMode(flags.GetString("mode"));
  if (!mode.ok()) {
    std::cerr << mode.status() << "\n";
    return 1;
  }

  QueryOptions options;
  options.mode = *mode;
  options.delta = flags.GetInt64("delta");
  options.phi = flags.GetDouble("phi");
  options.k = flags.GetInt64("k");
  options.strict_maximality = flags.GetBool("strict");
  options.collect_limit = flags.GetInt64("limit");
  options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));

  // Validate the numeric flags here so a typo gets one clear line
  // naming the flag; the engine would reject the same values, but with
  // a generic kError termination instead of a usage message.
  const auto reject = [](const std::string& message) {
    std::cerr << "INVALID_ARGUMENT: " << message << "\n";
    return 1;
  };
  if (options.delta < 0) return reject("--delta must be non-negative");
  if (!(options.phi >= 0.0)) {  // NaN too
    return reject("--phi must be a non-negative number");
  }
  if (options.k < 1) return reject("--k must be >= 1");
  if (options.collect_limit < -1) {
    return reject("--limit must be -1 (all), 0 (none), or positive");
  }
  // Validated before the narrowing cast: a negative (or absurd) value
  // must never reach ThreadPool's aborting CHECK, and casting first
  // could wrap it into a "valid" count.
  const int64_t threads_flag = flags.GetInt64("threads");
  const Status threads_status = ValidateThreadsFlag(threads_flag);
  if (!threads_status.ok()) return reject(threads_status.message());
  options.num_threads = static_cast<int>(threads_flag);
  // Validated before the narrowing cast too: 4294967297 would wrap to 1.
  const int64_t random_graphs = flags.GetInt64("random-graphs");
  if (random_graphs < 1 || random_graphs > std::numeric_limits<int>::max()) {
    return reject("--random-graphs must be between 1 and " +
                  std::to_string(std::numeric_limits<int>::max()));
  }
  options.num_random_graphs = static_cast<int>(random_graphs);
  const int64_t deadline_ms = flags.GetInt64("deadline_ms");
  if (deadline_ms < 0) return reject("--deadline_ms must be non-negative");
  if (deadline_ms > 0) {
    options.deadline = QueryDeadline::AfterMillis(deadline_ms);
  }
  const int64_t max_matches = flags.GetInt64("max_matches");
  if (max_matches < -1) {
    return reject("--max_matches must be -1 (unlimited) or non-negative");
  }
  options.budget.max_matches = max_matches;

  std::cout << "Motif " << motif->name() << " (" << motif->PathString()
            << "), delta=" << options.delta << ", phi=" << options.phi
            << ", mode=" << flags.GetString("mode") << "\n\n";

  const QueryEngine engine(graph);
  const QueryResult result = engine.Run(*motif, options);

  if (!result.termination.complete()) {
    // Deadline/budget truncation: the numbers below cover exactly the
    // first work_completed structural matches, not the whole graph.
    std::cout << "PARTIAL RESULT: " << result.termination.ToString();
    if (result.termination.work_completed >= 0) {
      std::cout << " after " << result.termination.work_completed
                << " work units";
    }
    std::cout << "\n\n";
  }

  switch (*mode) {
    case QueryMode::kEnumerate: {
      for (const MotifInstance& instance : result.instances) {
        PrintInstance(instance);
      }
      if (result.stats.num_instances >
          static_cast<int64_t>(result.instances.size())) {
        std::cout << "  ... (limit reached)\n";
      }
      std::cout << "\n" << result.stats.num_instances << " instances from "
                << result.stats.num_structural_matches
                << " structural matches, "
                << result.stats.num_windows_processed << " windows\n";
      break;
    }
    case QueryMode::kCount:
      std::cout << result.stats.num_instances << " instances ("
                << result.stats.num_structural_matches << " matches, "
                << result.stats.num_windows_processed << " windows, "
                << result.memo_hits << " memo hits)\n";
      break;
    case QueryMode::kTopK: {
      for (const TopKEntry& entry : result.topk) {
        PrintInstance(entry.instance);
      }
      std::cout << "\n" << result.topk.size() << " results\n";
      break;
    }
    case QueryMode::kTop1:
      if (!result.top1.found) {
        std::cout << "no instance found\n";
      } else {
        PrintInstance(result.top1.best);
        std::cout << "\nmax flow " << result.top1.max_flow << " in window ["
                  << result.top1.window.start << ","
                  << result.top1.window.end << "]\n";
      }
      break;
    case QueryMode::kSignificance: {
      const auto& report = result.significance;
      std::cout << "real count " << report.real_count << ", randomized mean "
                << report.random_summary.mean << " (sd "
                << report.random_summary.stddev << "), z-score "
                << report.z_score << ", p-value " << report.p_value << "\n";
      break;
    }
  }
  PrintFooter(result);
  return 0;
}
