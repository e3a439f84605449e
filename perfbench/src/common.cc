#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "graph/graph_io.h"
#include "util/failpoint.h"

namespace flowbench {

using flowmotif::DatasetPreset;
using flowmotif::InteractionGraph;
using flowmotif::Status;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal
  CpuTicks ticks;
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    stat >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  const uint64_t total = to.total - from.total;
  return total > 0 ? static_cast<double>(to.steal - from.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

int64_t RunConfig::Operations(double per_second) const {
  return std::max<int64_t>(1, std::llround(per_second * seconds));
}

bool MoreSetups(const std::vector<double>& setup_s) {
  double spent = 0.0;
  for (double s : setup_s) spent += s;
  return setup_s.size() < 5 || (spent < 1.5 && setup_s.size() < 25);
}

int64_t Tracer::Add(const std::string& name, double start, double end,
                    int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end - spans_[i].start - child_time[i];
  }
  return self;
}

Status Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return Status::IoError("cannot write " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "# id\tname\tstart_s\tend_s\tparent\trequest\n";
  out << std::setprecision(9);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.name << '\t' << s.start - origin << '\t'
        << s.end - origin << '\t' << s.parent << '\t' << s.request << '\n';
  }
  out.flush();
  return out.good() ? Status::OK() : Status::IoError("write failure: " + path);
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

void Report::Context(const std::string& key, double value) {
  context_.emplace_back(key, FormatDouble(value, 6));
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.emplace_back(name, Value{value, unit});
}

void Report::Figure(const std::string& name, double value,
                    const std::string& unit) {
  figures_.emplace_back(name, Value{value, unit});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_.emplace_back(name, Value{value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::CountOp(const std::string& type, bool ok) {
  std::lock_guard<std::mutex> lock(ops_mu_);
  OpCount& count = ops_[type];
  ++count.attempted;
  if (!ok) ++count.failed;
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  ++failed_checks_;
  if (check_failures_.size() < 20) check_failures_.push_back(what);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Every digit as measured; JSON has no infinity, so a percentile that
// landed on a failed operation prints as a huge finite number.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

template <typename Values>
std::string JsonValues(const Values& values) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(values[i].first) + ": {\"value\": " +
           JsonNumber(values[i].second.value) +
           ", \"unit\": " + JsonString(values[i].second.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int Report::Finish(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(ops_mu_);
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const auto& [type, count] : ops_) {
    attempted += count.attempted;
    failed += count.failed;
  }
  for (const auto& [key, value] : context_) {
    out << "context  " << key << " = " << value << "\n";
  }
  for (const auto& [type, count] : ops_) {
    out << "ops      " << type << ": attempted " << count.attempted
        << ", succeeded " << count.attempted - count.failed << ", failed "
        << count.failed << "\n";
  }
  for (const auto& [name, v] : end_to_end_) {
    out << "e2e      " << name << " = " << FormatDouble(v.value) << " "
        << v.unit << "\n";
  }
  for (const auto& [name, v] : figures_) {
    out << "figure   " << name << " = " << FormatDouble(v.value) << " "
        << v.unit << "\n";
  }
  for (const auto& [name, v] : layers_) {
    out << "layer    " << name << " = " << FormatDouble(v.value) << " "
        << v.unit << "\n";
  }
  for (const std::string& line : notes_) out << "note     " << line << "\n";
  out << "checks   " << checks_ - failed_checks_ << " of " << checks_
      << " output checks passed\n";
  for (const std::string& what : check_failures_) {
    out << "FAILED   " << what << "\n";
  }

  std::string ops_json = "{";
  bool first = true;
  for (const auto& [type, count] : ops_) {
    if (!first) ops_json += ", ";
    first = false;
    ops_json += JsonString(type) +
                ": {\"attempted\": " + std::to_string(count.attempted) +
                ", \"failed\": " + std::to_string(count.failed) + "}";
  }
  ops_json += "}";
  std::string context_json = "{";
  for (size_t i = 0; i < context_.size(); ++i) {
    if (i > 0) context_json += ", ";
    context_json +=
        JsonString(context_[i].first) + ": " + JsonString(context_[i].second);
  }
  context_json += "}";

  const bool ok = failed_checks_ == 0;
  out << "{\"correct\": " << (failed_checks_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"ops\": " << ops_json
      << ", \"end_to_end\": " << JsonValues(end_to_end_)
      << ", \"figures\": " << JsonValues(figures_)
      << ", \"layers\": " << JsonValues(layers_)
      << ", \"context\": " << context_json << "}" << std::endl;
  return ok ? 0 : 1;
}

bool SameResult(const flowmotif::QueryResult& result,
                const flowmotif::QueryResult& reference) {
  if (result.mode != reference.mode || !reference.termination.complete()) {
    return false;
  }
  if (result.stats.num_instances != reference.stats.num_instances ||
      result.stats.num_structural_matches !=
          reference.stats.num_structural_matches ||
      result.stats.num_phi_prunes != reference.stats.num_phi_prunes ||
      result.topk.size() != reference.topk.size()) {
    return false;
  }
  for (size_t i = 0; i < result.topk.size(); ++i) {
    if (result.topk[i].flow != reference.topk[i].flow ||
        !(result.topk[i].instance == reference.topk[i].instance)) {
      return false;
    }
  }
  if (result.top1.found != reference.top1.found ||
      result.top1.max_flow != reference.top1.max_flow) {
    return false;
  }
  return !result.top1.found || result.top1.best == reference.top1.best;
}

std::string FormatDouble(double value, int precision) {
  std::ostringstream os;
  os << std::setprecision(precision) << value;
  return os.str();
}

void FinishTrace(const RunConfig& config, const Tracer& tracer,
                 Report* report) {
  std::string line = "self time by span (s):";
  for (const auto& [name, seconds] : tracer.SelfSeconds()) {
    line += " " + name + "=" + FormatDouble(seconds);
  }
  report->Note(line);
  if (config.trace_out.empty()) return;
  report->Check(tracer.Write(config.trace_out).ok(),
                "spans written to " + config.trace_out);
  report->Note("spans: " + config.trace_out);
}

void StampContext(const RunConfig& config, Report* report) {
  report->Context("workload", config.workload);
  report->Context("seed", std::to_string(config.seed));
  report->Context("seconds", config.seconds);
  report->Context("traced", config.trace ? "yes" : "no");
  report->Context("nproc",
                  std::to_string(std::thread::hardware_concurrency()));
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  report->Context("cpu_model", cpu);
  report->Context("build_type", FLOWBENCH_BUILD_TYPE);
  report->Context("FLOWMOTIF_FAILPOINTS",
                  flowmotif::failpoint::kFailpointsCompiledIn ? "ON" : "OFF");
}

void StampGraph(const InteractionGraph& graph, int64_t num_pairs,
                Report* report) {
  report->Context("graph_vertices", std::to_string(graph.num_vertices()));
  report->Context("graph_pairs", std::to_string(num_pairs));
  report->Context("graph_interactions",
                  std::to_string(graph.num_interactions()));
}

DatasetPreset SeededPreset(const std::string& name, uint64_t seed) {
  flowmotif::StatusOr<DatasetPreset> preset = flowmotif::PresetByName(name);
  if (!preset.ok()) {
    std::cerr << preset.status().ToString() << "\n";
    std::exit(2);
  }
  DatasetPreset seeded = *preset;
  seeded.config.seed = seed;
  return seeded;
}

InteractionGraph LoadEdges(const std::string& path) {
  flowmotif::StatusOr<InteractionGraph> graph =
      flowmotif::LoadInteractionGraph(path);
  if (!graph.ok()) {
    std::cerr << "cannot load " << path << ": " << graph.status().ToString()
              << "\n";
    std::exit(2);
  }
  return *std::move(graph);
}

}  // namespace flowbench
