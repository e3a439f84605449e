#include "graph/graph_io.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

namespace flowmotif {

namespace {

/// The edge-list field delimiters: runs of spaces, tabs and '\r'.
bool IsDelimiter(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// One field of a row: [begin, end) of the line it was read from.
struct Field {
  const char* begin = nullptr;
  const char* end = nullptr;

  std::string text() const { return std::string(begin, end); }
};

/// Parses all of `field` as a base-10 integer of type T into `*out`.
/// Returns null on success, else why not: a value T cannot hold is
/// rejected, never wrapped or clamped into a different id or time.
/// strtoll reads in place; the line ends in a NUL, and a parse that
/// stops short of the field's end, or runs past it, is not an integer.
template <typename T>
const char* ParseInteger(const Field& field, T* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(field.begin, &end, 10);
  if (end != field.end) return "not an integer";
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
    // Split in place: the first four fields, and how many there are.
    Field fields[4];
    size_t num_fields = 0;
    const char* const line_end = line.data() + line.size();
    for (const char* c = line.data(); c != line_end;) {
      if (IsDelimiter(*c)) {
        ++c;
        continue;
      }
      const char* const begin = c;
      while (c != line_end && !IsDelimiter(*c)) ++c;
      if (num_fields < 4) fields[num_fields] = Field{begin, c};
      ++num_fields;
    }
    if (num_fields == 0) continue;
    const auto at = [&] { return path + ":" + std::to_string(line_no) + ": "; };
    // A NUL would end the string the number parsers read early.
    if (line.find('\0') != std::string::npos) {
      return Status::InvalidArgument(at() + "row contains a NUL byte");
    }
    if (num_fields != 4) {
      return Status::InvalidArgument(
          at() + "expected 'src dst time flow', got " +
          std::to_string(num_fields) + " fields");
    }
    const auto bad = [&](const char* name, const Field& field,
                         const char* why) {
      return Status::InvalidArgument(at() + "bad " + name + " '" +
                                     field.text() + "': " + why);
    };
    VertexId src = 0;
    VertexId dst = 0;
    Timestamp t = 0;
    if (const char* why = ParseInteger(fields[0], &src)) {
      return bad("src", fields[0], why);
    }
    if (const char* why = ParseInteger(fields[1], &dst)) {
      return bad("dst", fields[1], why);
    }
    if (const char* why = ParseInteger(fields[2], &t)) {
      return bad("time", fields[2], why);
    }
    char* end = nullptr;
    const double f = std::strtod(fields[3].begin, &end);
    if (end != fields[3].end) return bad("flow", fields[3], "not a number");
    // AddEdge rejects a flow that is not positive and finite, which
    // covers "inf", "nan" and an overflowing literal such as 1e400.
    Status s = graph.AddEdge(src, dst, t, f);
    if (!s.ok()) return Status::InvalidArgument(at() + s.message());
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
