// Shared pieces of the flowbench driver: clocks and percentiles, the
// in-memory span tracer, and the report every workload fills and prints.
#ifndef FLOWBENCH_COMMON_H_
#define FLOWBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "gen/presets.h"
#include "graph/interaction_graph.h"
#include "util/status.h"

namespace flowbench {

/// Steady-clock seconds since an arbitrary origin.
double Now();

/// Percentile q in [0, 1] of `values`, linearly interpolated between
/// ranks. Failed operations enter as +infinity, so they sort above every
/// measured value and count as beyond every percentile.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Set-up is repeated and its median reported: at least 5 times, then
/// until the repeats took 1.5 s, at most 25 times. True while another
/// repeat is due after those timed so far.
bool MoreSetups(const std::vector<double>& setup_s);

/// Cumulative CPU ticks of this VM from /proc/stat. Steal is time the
/// hypervisor ran other guests on its CPUs, one visible part of the
/// machine's drift, so every run stamps its share of the timed phase.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
double StealShare(const CpuTicks& from, const CpuTicks& to);

/// What one `flowbench run` invocation was asked to do.
struct RunConfig {
  std::string workload;
  std::string edges;      // edge file written earlier by `flowbench gen`
  uint64_t seed = 1;
  double seconds = 10.0;  // nominal length of the timed phase
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans

  /// Every run of a workload does the same, fixed number of operations:
  /// `per_second` (the workload's rate on the reference 4-vCPU VM) times
  /// `seconds`, at least 1. The timed phase then lasts about `seconds`.
  int64_t Operations(double per_second) const;
  /// A run stops before its operation count only past this time (four
  /// times the nominal length after `start`), to stay within its limit.
  double SafetyDeadline(double start) const { return start + 4 * seconds; }
};

/// One timed call made by the benchmark into the library.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;   // span id of the caller, -1 at the top
  int64_t request = -1;  // request the span belongs to, -1 if none
};

/// Keeps spans in memory while a traced run is measured and writes them
/// out when it ends. Disabled tracers record nothing. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (-1 when disabled).
  int64_t Add(const std::string& name, double start, double end,
              int64_t parent = -1, int64_t request = -1);

  /// Per span name: summed duration minus the time its child spans cover.
  std::map<std::string, double> SelfSeconds() const;

  /// One tab-separated line per span: id, name, start, end, parent,
  /// request. Times are seconds relative to the first span's start.
  flowmotif::Status Write(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Results of one run: end-to-end metrics (untraced runs), per-layer
/// metrics (traced runs), operation counts, output checks and context.
/// Finish prints human-readable lines and then one JSON line that
/// perfbench/run.py turns into the benchmark's result line.
class Report {
 public:
  void Context(const std::string& key, const std::string& value);
  void Context(const std::string& key, double value);
  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  /// A workload-specific end-to-end figure: printed by name and unit on
  /// every run of its workload, recorded in the JSON, not gated.
  void Figure(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);

  /// Counts one attempted operation of `type` (Submit, Append, ...).
  /// Thread-safe.
  void CountOp(const std::string& type, bool ok);
  /// Records an output check; any false check fails the run.
  void Check(bool ok, const std::string& what);

  /// Prints everything; returns the process exit code (0 only when every
  /// output check passed). Failed operations are reported, not fatal.
  int Finish(std::ostream& out) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  struct OpCount {
    int64_t attempted = 0;
    int64_t failed = 0;
  };
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::pair<std::string, Value>> end_to_end_;
  std::vector<std::pair<std::string, Value>> figures_;
  std::vector<std::pair<std::string, Value>> layers_;
  std::vector<std::string> notes_;
  mutable std::mutex ops_mu_;
  std::map<std::string, OpCount> ops_;
  int64_t checks_ = 0;
  int64_t failed_checks_ = 0;
  std::vector<std::string> check_failures_;
};

/// Ends a traced run: notes each span name's summed self time and writes
/// the spans to RunConfig::trace_out.
void FinishTrace(const RunConfig& config, const Tracer& tracer,
                 Report* report);

/// Stamps machine, build and run-input context shared by all workloads.
void StampContext(const RunConfig& config, Report* report);

/// Stamps the sizes of the graph a workload was set up on.
void StampGraph(const flowmotif::InteractionGraph& graph, int64_t num_pairs,
                Report* report);

/// The preset a workload runs on, with its generator seed replaced by the
/// workload seed (so one seed drives the whole dataset).
flowmotif::DatasetPreset SeededPreset(const std::string& name, uint64_t seed);

/// Reads the edge file a workload set-up starts from.
flowmotif::InteractionGraph LoadEdges(const std::string& path);

/// A served or repeated result equals a reference run of the same query:
/// counts, matches, prunes, top-k entries and the top-1 instance.
bool SameResult(const flowmotif::QueryResult& result,
                const flowmotif::QueryResult& reference);

std::string FormatDouble(double value, int precision = 4);

}  // namespace flowbench

#endif  // FLOWBENCH_COMMON_H_
