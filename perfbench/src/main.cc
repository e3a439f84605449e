// flowbench: the repository benchmark driver. perfbench/run.py calls it
// twice per run, as two processes:
//
//   flowbench gen --preset bitcoin --scale 1 --seed 7 --out FILE
//       writes the seeded preset's interactions, in time order, to FILE;
//   flowbench run --workload serve_mixed --edges FILE --seed 7
//                 --seconds 20 --trace 0 [--trace-out SPANS]
//       sets the workload up from FILE, measures it and checks it.
//
// Generation is its own process so that neither its time nor its memory
// lands in a measured run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "gen/presets.h"
#include "graph/graph_io.h"
#include "graph/time_series_graph.h"
#include "workloads.h"

namespace flowbench {
namespace {

using namespace flowmotif;

int Usage() {
  std::cerr << "usage: flowbench gen --preset NAME --scale X --seed N --out "
               "FILE\n"
               "       flowbench run --workload NAME --edges FILE --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n";
  return 2;
}

/// --key value / --key=value pairs after the subcommand.
bool ParseFlags(int argc, char** argv, std::map<std::string, std::string>* out) {
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      (*out)[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      (*out)[arg] = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

int Generate(const std::map<std::string, std::string>& flags) {
  const DatasetPreset preset = SeededPreset(
      flags.at("preset"), std::strtoull(flags.at("seed").c_str(), nullptr, 10));
  const double scale = std::strtod(flags.at("scale").c_str(), nullptr);
  if (!(scale > 0.0)) return Usage();
  const TimeSeriesGraph graph = GenerateDataset(preset, scale);
  std::vector<InteractionGraph::Edge> edges;
  for (const TimeSeriesGraph::PairEdge& pair : graph.pairs()) {
    for (size_t i = 0; i < pair.series.size(); ++i) {
      edges.push_back({pair.src, pair.dst, pair.series.time(i),
                       pair.series.flow(i)});
    }
  }
  // Time order, so live_ingest can replay the trace's second half as a
  // monotone stream.
  std::stable_sort(edges.begin(), edges.end(),
                   [](const InteractionGraph::Edge& a,
                      const InteractionGraph::Edge& b) { return a.t < b.t; });
  InteractionGraph out;
  for (const InteractionGraph::Edge& e : edges) {
    const Status added = out.AddEdge(e.src, e.dst, e.t, e.f);
    if (!added.ok()) {
      std::cerr << added.ToString() << "\n";
      return 1;
    }
  }
  const std::string& path = flags.at("out");
  const std::string partial = path + ".partial";
  const Status saved = SaveInteractionGraph(out, partial);
  if (!saved.ok() || std::rename(partial.c_str(), path.c_str()) != 0) {
    std::cerr << "cannot write " << path << ": " << saved.ToString() << "\n";
    return 1;
  }
  return 0;
}

int Run(const std::map<std::string, std::string>& flags) {
  RunConfig config;
  config.workload = flags.at("workload");
  config.edges = flags.at("edges");
  config.seed = std::strtoull(flags.at("seed").c_str(), nullptr, 10);
  config.seconds = std::strtod(flags.at("seconds").c_str(), nullptr);
  config.trace = flags.at("trace") == "1";
  if (flags.count("trace-out") > 0) config.trace_out = flags.at("trace-out");
  if (!(config.seconds > 0.0)) return Usage();
  if (config.workload == "serve_mixed") return RunServeMixed(config);
  if (config.workload == "live_ingest") return RunLiveIngest(config);
  if (config.workload == "batch_study") return RunBatchStudy(config);
  std::cerr << "unknown workload '" << config.workload << "'\n";
  return 2;
}

}  // namespace
}  // namespace flowbench

int main(int argc, char** argv) {
  if (argc < 2) return flowbench::Usage();
  std::map<std::string, std::string> flags;
  if (!flowbench::ParseFlags(argc, argv, &flags)) return flowbench::Usage();
  const std::string command = argv[1];
  const std::vector<std::string> needed =
      command == "gen" ? std::vector<std::string>{"preset", "scale", "seed",
                                                  "out"}
                       : std::vector<std::string>{"workload", "edges", "seed",
                                                  "seconds", "trace"};
  if (command != "gen" && command != "run") return flowbench::Usage();
  for (const std::string& key : needed) {
    if (flags.count(key) == 0) return flowbench::Usage();
  }
  return command == "gen" ? flowbench::Generate(flags) : flowbench::Run(flags);
}
