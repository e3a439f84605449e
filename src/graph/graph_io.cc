#include "graph/graph_io.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

namespace flowmotif {

namespace {

/// Splits on runs of spaces/tabs (the edge-list format allows either).
std::vector<std::string> SplitWhitespace(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(current);
  return tokens;
}

/// Parses all of `token` as a base-10 integer of type T into `*out`.
/// Returns null on success, else why not: a value T cannot hold is
/// rejected, never wrapped or clamped into a different id or time.
template <typename T>
const char* ParseInteger(const std::string& token, T* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (*end != '\0') return "not an integer";
  if (errno == ERANGE ||
      value < static_cast<long long>(std::numeric_limits<T>::min()) ||
      value > static_cast<long long>(std::numeric_limits<T>::max())) {
    return "out of range";
  }
  *out = static_cast<T>(value);
  return nullptr;
}

}  // namespace

StatusOr<InteractionGraph> LoadInteractionGraph(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  InteractionGraph graph;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> tokens = SplitWhitespace(line);
    if (tokens.empty()) continue;
    if (tokens.size() != 4) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_no) +
          ": expected 'src dst time flow', got " +
          std::to_string(tokens.size()) + " fields");
    }
    const auto bad = [&](const char* field, const std::string& token,
                         const char* why) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": bad " + field + " '" + token +
                                     "': " + why);
    };
    VertexId src = 0;
    VertexId dst = 0;
    Timestamp t = 0;
    if (const char* why = ParseInteger(tokens[0], &src)) {
      return bad("src", tokens[0], why);
    }
    if (const char* why = ParseInteger(tokens[1], &dst)) {
      return bad("dst", tokens[1], why);
    }
    if (const char* why = ParseInteger(tokens[2], &t)) {
      return bad("time", tokens[2], why);
    }
    char* end = nullptr;
    const double f = std::strtod(tokens[3].c_str(), &end);
    if (*end != '\0') return bad("flow", tokens[3], "not a number");
    // AddEdge rejects a flow that is not positive and finite, which
    // covers "inf", "nan" and an overflowing literal such as 1e400.
    Status s = graph.AddEdge(src, dst, t, f);
    if (!s.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": " + s.message());
    }
  }
  return graph;
}

namespace {

void AppendFlow(std::ostream& os, Flow f) {
  // Integral flows print without a decimal point so files stay compact and
  // byte-stable across round trips. The magnitude guard keeps the
  // double->int64 cast defined for absurdly large flows.
  if (std::abs(f) < 9e15 &&
      f == static_cast<double>(static_cast<int64_t>(f))) {
    os << static_cast<int64_t>(f);
  } else {
    os << f;
  }
}

}  // namespace

Status SaveInteractionGraph(const InteractionGraph& graph,
                            const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out << "# flowmotif edge list: src dst time flow\n";
  for (const InteractionGraph::Edge& e : graph.edges()) {
    out << e.src << ' ' << e.dst << ' ' << e.t << ' ';
    AppendFlow(out, e.f);
    out << '\n';
  }
  out.flush();
  if (!out.good()) return Status::IoError("write failure: " + path);
  return Status::OK();
}

Status SaveTimeSeriesGraph(const TimeSeriesGraph& graph,
                           const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out << "# flowmotif edge list: src dst time flow\n";
  for (const TimeSeriesGraph::PairEdge& pe : graph.pairs()) {
    for (size_t i = 0; i < pe.series.size(); ++i) {
      out << pe.src << ' ' << pe.dst << ' ' << pe.series.time(i) << ' ';
      AppendFlow(out, pe.series.flow(i));
      out << '\n';
    }
  }
  out.flush();
  if (!out.good()) return Status::IoError("write failure: " + path);
  return Status::OK();
}

}  // namespace flowmotif
