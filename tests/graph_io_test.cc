#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "test_util.h"

namespace flowmotif {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "graph_io_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".txt";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(GraphIoTest, SaveLoadRoundTripInteractionGraph) {
  InteractionGraph g;
  ASSERT_TRUE(g.AddEdge(0, 1, 13, 5).ok());
  ASSERT_TRUE(g.AddEdge(0, 1, 15, 7.25).ok());
  ASSERT_TRUE(g.AddEdge(2, 0, 10, 10).ok());
  ASSERT_TRUE(SaveInteractionGraph(g, path_).ok());

  StatusOr<InteractionGraph> loaded = LoadInteractionGraph(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_interactions(), 3);
  EXPECT_EQ(loaded->num_vertices(), 3);
  EXPECT_EQ(loaded->edges()[1].t, 15);
  EXPECT_DOUBLE_EQ(loaded->edges()[1].f, 7.25);
}

TEST_F(GraphIoTest, SaveTimeSeriesGraphRoundTripsThroughBuild) {
  TimeSeriesGraph g = testing_util::PaperFig2Graph();
  ASSERT_TRUE(SaveTimeSeriesGraph(g, path_).ok());

  StatusOr<InteractionGraph> loaded = LoadInteractionGraph(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  TimeSeriesGraph rebuilt = TimeSeriesGraph::Build(*loaded);

  ASSERT_EQ(rebuilt.num_pairs(), g.num_pairs());
  for (size_t i = 0; i < static_cast<size_t>(g.num_pairs()); ++i) {
    EXPECT_EQ(rebuilt.pair(i).src, g.pair(i).src);
    EXPECT_EQ(rebuilt.pair(i).dst, g.pair(i).dst);
    ASSERT_EQ(rebuilt.pair(i).series.size(), g.pair(i).series.size());
    for (size_t j = 0; j < g.pair(i).series.size(); ++j) {
      EXPECT_EQ(rebuilt.pair(i).series.at(j), g.pair(i).series.at(j));
    }
  }
}

TEST_F(GraphIoTest, LoadSkipsCommentsAndWhitespaceVariants) {
  {
    std::ofstream out(path_);
    out << "# comment line\n";
    out << "0 1 10 2.5\n";
    out << "\n";
    out << "1\t2\t20\t3\n";     // tabs
    out << "2  3   30   4\n";   // multiple spaces
  }
  StatusOr<InteractionGraph> loaded = LoadInteractionGraph(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_interactions(), 3);
}

TEST_F(GraphIoTest, LoadRejectsMalformedRows) {
  {
    std::ofstream out(path_);
    out << "0 1 10\n";  // missing flow
  }
  EXPECT_FALSE(LoadInteractionGraph(path_).ok());

  {
    std::ofstream out(path_);
    out << "0 1 ten 1.0\n";  // bad time
  }
  EXPECT_FALSE(LoadInteractionGraph(path_).ok());

  {
    std::ofstream out(path_);
    out << "0 1 10 -3\n";  // negative flow
  }
  EXPECT_FALSE(LoadInteractionGraph(path_).ok());

  {
    std::ofstream out(path_);
    out << "a 1 10 1\n";  // bad vertex
  }
  EXPECT_FALSE(LoadInteractionGraph(path_).ok());

  // Values the parsed types cannot hold are rejected, not wrapped or
  // clamped into a different edge: an id past the 32-bit VertexId (it
  // would wrap to 0), a time past int64, and a flow that overflows a
  // double to infinity.
  for (const char* row : {"4294967296 1 1 2.0\n",
                          "0 1 99999999999999999999 1.0\n",
                          "0 1 10 1e400\n"}) {
    {
      std::ofstream out(path_);
      out << row;
    }
    const StatusOr<InteractionGraph> loaded = LoadInteractionGraph(path_);
    ASSERT_FALSE(loaded.ok()) << row;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << row;
    EXPECT_NE(loaded.status().message().find(path_ + ":1: "),
              std::string::npos)
        << loaded.status();
  }
}

/// The loader as it parsed rows before it split them in place: each
/// line copied into a vector of field strings, each field parsed on its
/// own copy. The seeded test below holds the loader to it.
namespace reference {

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

StatusOr<InteractionGraph> Load(const std::string& path,
                                const std::vector<std::string>& lines) {
  InteractionGraph graph;
  int64_t line_no = 0;
  for (const std::string& line : lines) {
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
    Status s = graph.AddEdge(src, dst, t, f);
    if (!s.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": " + s.message());
    }
  }
  return graph;
}

}  // namespace reference

/// One seeded row: a valid edge row, then up to three mutations drawn
/// from what an untrusted edge file may hold.
std::string MutatedRow(std::mt19937_64& rng) {
  const auto pick = [&rng](const std::vector<std::string>& from) {
    return from[rng() % from.size()];
  };
  std::vector<std::string> fields = {
      std::to_string(rng() % 50), std::to_string(rng() % 50),
      std::to_string(rng() % 1000000),
      std::to_string(1 + rng() % 1000) + "." + std::to_string(rng() % 100)};
  std::vector<std::string> gaps(fields.size() + 1, " ");
  gaps.front() = "";
  gaps.back() = "";
  const std::vector<std::string> values = {
      "+5", "-3", "0", "-0", "0x10", "1e3", "inf", "-inf", "nan", "1e400",
      "1e-400", "0x1p3", "0x1.8p1", "2147483647", "2147483648",
      "-2147483649", "4294967296", "9223372036854775807",
      "9223372036854775808", "-9223372036854775809",
      "99999999999999999999", "abc", "1.5", "12abc", "\v7", "7\v", "+",
      "-", ".", "1e", "\f", "#", "3 4"};
  const std::vector<std::string> delimiters = {"\t", "  ", "\r", " \r ",
                                               "\v", "\f", "\t\t", " \v "};
  const int mutations = static_cast<int>(rng() % 4);
  for (int m = 0; m < mutations; ++m) {
    switch (rng() % 6) {
      case 0:  // a field missing
        if (fields.size() > 1) {
          const size_t i = rng() % fields.size();
          fields.erase(fields.begin() + static_cast<std::ptrdiff_t>(i));
          gaps.erase(gaps.begin() + static_cast<std::ptrdiff_t>(i + 1));
        }
        break;
      case 1:  // an extra field
        fields.push_back(pick(values));
        gaps.insert(gaps.end() - 1, " ");
        break;
      case 2:  // a field replaced
        fields[rng() % fields.size()] = pick(values);
        break;
      case 3:  // another delimiter, leading and trailing ones included
        gaps[rng() % gaps.size()] = pick(delimiters);
        break;
      case 4:  // a comment marker
        gaps.front() = rng() % 2 == 0 ? "#" : " #";
        break;
      case 5:  // a leading '+'
        fields[rng() % fields.size()].insert(0, "+");
        break;
    }
  }
  std::string row = gaps[0];
  for (size_t i = 0; i < fields.size(); ++i) row += fields[i] + gaps[i + 1];
  // Byte-level damage: a NUL, or junk of any byte but the newline.
  const uint64_t damage = rng() % 8;
  if (damage <= 1) {
    row.insert(rng() % (row.size() + 1), 1, '\0');
  } else if (damage == 2) {
    char junk = static_cast<char>(rng() % 256);
    if (junk == '\n') junk = '!';
    row.insert(rng() % (row.size() + 1), 1, junk);
  }
  return row;
}

TEST_F(GraphIoTest, SeededMalformedRowsLoadAsTheReferenceParsesThem) {
  // Each file holds a valid row, then a seeded mutation of one. Rows
  // without a NUL load to the reference's edges or fail with its code
  // and message; a row with a NUL byte is rejected (a NUL used to end
  // the number parsers' string, so "1\0x 2 3 4.0" loaded as 1->2).
  std::mt19937_64 rng(20240611);
  constexpr int kRows = 3000;
  int accepted = 0;
  int rejected = 0;
  int with_nul = 0;
  for (int r = 0; r < kRows; ++r) {
    const std::string row = MutatedRow(rng);
    const std::vector<std::string> lines = {"7 8 100 2.5", row};
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      for (const std::string& line : lines) out << line << '\n';
    }
    const StatusOr<InteractionGraph> loaded = LoadInteractionGraph(path_);
    const std::string context = "row " + std::to_string(r) + ": '" + row + "'";
    if (row.find('\0') != std::string::npos && row[0] != '#') {
      ++with_nul;
      ASSERT_FALSE(loaded.ok()) << context;
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(loaded.status().message().find(path_ + ":2: "),
                std::string::npos)
          << loaded.status();
      continue;
    }
    const StatusOr<InteractionGraph> expected = reference::Load(path_, lines);
    ASSERT_EQ(loaded.ok(), expected.ok())
        << context << " loaded: " << loaded.status()
        << " reference: " << expected.status();
    if (!expected.ok()) {
      ++rejected;
      EXPECT_EQ(loaded.status().code(), expected.status().code()) << context;
      EXPECT_EQ(loaded.status().message(), expected.status().message())
          << context;
      continue;
    }
    ++accepted;
    ASSERT_EQ(loaded->num_interactions(), expected->num_interactions())
        << context;
    for (size_t i = 0; i < loaded->edges().size(); ++i) {
      const InteractionGraph::Edge& a = loaded->edges()[i];
      const InteractionGraph::Edge& b = expected->edges()[i];
      EXPECT_EQ(a.src, b.src) << context;
      EXPECT_EQ(a.dst, b.dst) << context;
      EXPECT_EQ(a.t, b.t) << context;
      EXPECT_EQ(std::memcmp(&a.f, &b.f, sizeof(a.f)), 0) << context;
    }
  }
  // The mutations reach every outcome.
  EXPECT_GT(accepted, kRows / 10);
  EXPECT_GT(rejected, kRows / 10);
  EXPECT_GT(with_nul, kRows / 20);
}

TEST_F(GraphIoTest, ErrorMessagesIncludeLineNumbers) {
  {
    std::ofstream out(path_);
    out << "0 1 10 1\n";
    out << "0 1 bad 1\n";
  }
  StatusOr<InteractionGraph> loaded = LoadInteractionGraph(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(":2"), std::string::npos);
}

TEST_F(GraphIoTest, MissingFileIsIoError) {
  StatusOr<InteractionGraph> loaded =
      LoadInteractionGraph("/nonexistent/nowhere.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, IntegralFlowsWrittenWithoutDecimalPoint) {
  InteractionGraph g;
  ASSERT_TRUE(g.AddEdge(0, 1, 5, 3.0).ok());
  ASSERT_TRUE(SaveInteractionGraph(g, path_).ok());
  std::ifstream in(path_);
  std::string line;
  std::getline(in, line);  // header comment
  std::getline(in, line);
  EXPECT_EQ(line, "0 1 5 3");
}

}  // namespace
}  // namespace flowmotif
