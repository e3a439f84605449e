#include "core/motif.h"

#include <gtest/gtest.h>

#include <climits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/motif_catalog.h"

namespace flowmotif {
namespace {

TEST(MotifTest, ChainBasics) {
  StatusOr<Motif> m = Motif::FromSpanningPath({0, 1, 2});
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->num_nodes(), 3);
  EXPECT_EQ(m->num_edges(), 2);
  EXPECT_EQ(m->edge(0), std::make_pair(0, 1));
  EXPECT_EQ(m->edge(1), std::make_pair(1, 2));
  EXPECT_FALSE(m->HasCycle());
  EXPECT_EQ(m->PathString(), "0-1-2");
  EXPECT_EQ(m->name(), "0-1-2");  // defaults to the path notation
}

TEST(MotifTest, CycleDetection) {
  StatusOr<Motif> cycle = Motif::FromSpanningPath({0, 1, 2, 0});
  ASSERT_TRUE(cycle.ok());
  EXPECT_TRUE(cycle->HasCycle());
  EXPECT_EQ(cycle->num_nodes(), 3);
  EXPECT_EQ(cycle->num_edges(), 3);

  StatusOr<Motif> tailed = Motif::FromSpanningPath({0, 1, 2, 3, 1});
  ASSERT_TRUE(tailed.ok());
  EXPECT_TRUE(tailed->HasCycle());
  EXPECT_EQ(tailed->num_nodes(), 4);
}

TEST(MotifTest, SingleEdgeMotif) {
  StatusOr<Motif> m = Motif::FromSpanningPath({0, 1});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_edges(), 1);
  EXPECT_EQ(m->num_nodes(), 2);
}

TEST(MotifTest, CustomName) {
  StatusOr<Motif> m = Motif::FromSpanningPath({0, 1, 2, 0}, "M(3,3)");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->name(), "M(3,3)");
  EXPECT_EQ(m->PathString(), "0-1-2-0");
}

TEST(MotifTest, RejectsTooShortPath) {
  EXPECT_FALSE(Motif::FromSpanningPath({0}).ok());
  EXPECT_FALSE(Motif::FromSpanningPath({}).ok());
}

TEST(MotifTest, RejectsSelfLoopEdges) {
  EXPECT_FALSE(Motif::FromSpanningPath({0, 0}).ok());
  EXPECT_FALSE(Motif::FromSpanningPath({0, 1, 1}).ok());
}

TEST(MotifTest, RejectsRepeatedEdges) {
  // 0->1 appears twice: edge labels must identify distinct edges.
  EXPECT_FALSE(Motif::FromSpanningPath({0, 1, 0, 1}).ok());
}

TEST(MotifTest, RejectsNegativeAndSparseIds) {
  EXPECT_FALSE(Motif::FromSpanningPath({0, -1}).ok());
  // Node 1 is missing: ids must be dense.
  EXPECT_FALSE(Motif::FromSpanningPath({0, 2}).ok());
}

TEST(MotifTest, AllowsRevisitingNodesWithDistinctEdges) {
  // 0->1->2->0->3: node 0 appears twice, all edges distinct.
  StatusOr<Motif> m = Motif::FromSpanningPath({0, 1, 2, 0, 3});
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->num_nodes(), 4);
  EXPECT_EQ(m->num_edges(), 4);
}

TEST(MotifTest, ParseRoundTrip) {
  StatusOr<Motif> m = Motif::Parse("0-1-2-0");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->PathString(), "0-1-2-0");
  EXPECT_EQ(m->num_edges(), 3);
}

TEST(MotifTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Motif::Parse("").ok());
  EXPECT_FALSE(Motif::Parse("0-").ok());
  EXPECT_FALSE(Motif::Parse("0-x-2").ok());
  EXPECT_FALSE(Motif::Parse("0--1").ok());
  // Ids past int used to wrap: "1-4294967296" ran motif 1-0 and
  // "0>1,1>4294967298" ran 0-1-2.
  for (const char* text :
       {"1-4294967296", "0>1,1>4294967298", "0-1-2147483648",
        "0-99999999999999999999", "0>1,1>-1", "0-1-2-", "0>1,0>2,",
        "-0-1", ",0>1", "0>1,,0>2", "0-+1", "0- 1", " 0-1", "0>1, 0>2",
        "0>1>2", "0>1,1"}) {
    const StatusOr<Motif> m = Motif::Parse(text);
    ASSERT_FALSE(m.ok()) << text;
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument) << text;
  }
  // A dense motif of m edges has ids below 2m; a larger id is refused
  // before anything is sized by it.
  EXPECT_FALSE(Motif::Parse("0-1-2147483647").ok());
  EXPECT_FALSE(Motif::Parse("0>2147483647").ok());
  EXPECT_EQ(Motif::Parse("0>1,2>3").status().code(),
            StatusCode::kInvalidArgument);  // dense but disconnected
  EXPECT_TRUE(Motif::Parse("00-01").ok());   // leading zeros are digits
}

/// The reference reading of a motif string: the ids it names, as digit
/// strings without leading zeros, in order (a path's nodes, or each
/// edge's source and target); nullopt unless the string is well formed
/// — path notation is digit runs joined by single '-', edge-list
/// notation is digit-'>'-digit tokens joined by single ','.
std::optional<std::vector<std::string>> ReferenceIds(const std::string& text) {
  const bool edge_list = text.find('>') != std::string::npos;
  std::vector<std::string> ids;
  std::string run;
  bool arrow_seen = false;  // edge list: the current token's '>'
  const auto end_run = [&]() {
    if (run.empty()) return false;
    const size_t nonzero = run.find_first_not_of('0');
    ids.push_back(nonzero == std::string::npos ? "0" : run.substr(nonzero));
    run.clear();
    return true;
  };
  for (const char c : text) {
    if (c >= '0' && c <= '9') {
      run += c;
    } else if (!edge_list && c == '-') {
      if (!end_run()) return std::nullopt;
    } else if (edge_list && c == '>' && !arrow_seen) {
      if (!end_run()) return std::nullopt;
      arrow_seen = true;
    } else if (edge_list && c == ',' && arrow_seen) {
      if (!end_run()) return std::nullopt;
      arrow_seen = false;
    } else {
      return std::nullopt;
    }
  }
  if (!end_run() || (edge_list && !arrow_seen)) return std::nullopt;
  return ids;
}

TEST(MotifTest, SeededMutatedStringsParseAsTheReferenceReadsThem) {
  // Catalog motifs in both notations, mutated by seeded edits: ids past
  // int, signs, spaces, doubled, leading and trailing separators, junk
  // bytes (NUL included), deletions and leading zeros. Parse must never
  // abort; every string it accepts must name exactly the ids the
  // reference reads, compared as digit strings so a wrapped id cannot
  // pass; and every well-formed string of int ids must parse as the
  // motif its ids build.
  std::vector<std::string> bases;
  for (const Motif& motif : MotifCatalog::All()) {
    bases.push_back(motif.PathString());
    std::string edges;
    for (int i = 0; i < motif.num_edges(); ++i) {
      if (i > 0) edges += ',';
      edges += std::to_string(motif.edge(i).first) + '>' +
               std::to_string(motif.edge(i).second);
    }
    bases.push_back(edges);
  }
  const std::vector<std::string> ids = {
      "2147483647", "2147483648", "4294967296", "4294967298",
      "99999999999999999999", "18446744073709551616", "007", "3"};
  std::mt19937 rng(20261020);
  const auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = bases[pick(bases.size())];
    for (size_t edits = 1 + pick(2); edits > 0; --edits) {
      const size_t at = pick(text.size() + 1);
      switch (pick(8)) {
        case 0: {  // replace the digit run at or after `at` with an id
          const size_t begin = text.find_first_of("0123456789", at);
          if (begin == std::string::npos) break;
          const size_t end = text.find_first_not_of("0123456789", begin);
          text.replace(begin,
                       (end == std::string::npos ? text.size() : end) - begin,
                       ids[pick(ids.size())]);
          break;
        }
        case 1:
          text.insert(at, 1, "+-"[pick(2)]);
          break;
        case 2:
          text.insert(at, 1, " \t"[pick(2)]);
          break;
        case 3: {  // double a separator
          const size_t sep = text.find_first_of("->,", at);
          if (sep != std::string::npos) text.insert(sep, 1, text[sep]);
          break;
        }
        case 4:  // leading or trailing separator
          text.insert(pick(2) == 0 ? 0 : text.size(), 1, "->,"[pick(3)]);
          break;
        case 5:
          text.insert(at, 1, static_cast<char>(rng() % 256));
          break;
        case 6: {  // a leading zero: the same id
          const size_t digit = text.find_first_of("0123456789", at);
          if (digit != std::string::npos) text.insert(digit, 1, '0');
          break;
        }
        default:
          if (!text.empty()) text.erase(at == text.size() ? at - 1 : at, 1);
          break;
      }
    }
    const StatusOr<Motif> parsed = Motif::Parse(text);
    const std::optional<std::vector<std::string>> reference =
        ReferenceIds(text);
    const std::string label = "trial " + std::to_string(trial) + " '" +
                              text + "'";
    if (parsed.ok()) {
      ++accepted;
      ASSERT_TRUE(reference.has_value()) << label;
      std::vector<std::string> named;
      if (text.find('>') != std::string::npos) {
        for (const auto& [src, dst] : parsed->edges()) {
          named.push_back(std::to_string(src));
          named.push_back(std::to_string(dst));
        }
      } else {
        for (const MotifNode v : parsed->path()) {
          named.push_back(std::to_string(v));
        }
      }
      ASSERT_EQ(named, *reference) << label;
      continue;
    }
    ASSERT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << label;
    if (!reference.has_value()) continue;
    // Well formed yet refused: some id is past int, or the ids do not
    // build a motif.
    std::vector<MotifNode> values;
    bool fits = true;
    for (const std::string& id : *reference) {
      fits = fits && id.size() <= 10 && std::stoll(id) <= INT_MAX;
      if (fits) values.push_back(static_cast<MotifNode>(std::stoll(id)));
    }
    if (!fits) continue;
    StatusOr<Motif> built = Status::InvalidArgument("");
    if (text.find('>') != std::string::npos) {
      std::vector<std::pair<MotifNode, MotifNode>> edges;
      for (size_t i = 0; i + 1 < values.size(); i += 2) {
        edges.push_back({values[i], values[i + 1]});
      }
      built = Motif::FromEdgeList(edges);
    } else {
      built = Motif::FromSpanningPath(values);
    }
    EXPECT_FALSE(built.ok()) << label;
  }
  // The mutations must leave a share of strings valid, or the accept
  // branch above checks nothing.
  EXPECT_GT(accepted, 100) << accepted;
}

TEST(MotifTest, EqualityIsPathEquality) {
  Motif a = *Motif::FromSpanningPath({0, 1, 2}, "A");
  Motif b = *Motif::FromSpanningPath({0, 1, 2}, "B");
  Motif c = *Motif::FromSpanningPath({0, 1, 2, 0});
  EXPECT_EQ(a, b);  // names do not matter
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace flowmotif
