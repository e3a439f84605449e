// Byte-identical equivalence of the cursor-based counting path
// (core/counter.cc: per-level window cursors from the shared
// core/window_cursor layer, galloping next-edge advances, reused memo
// maps, SharedWindowCache window lists) against a retained naive
// reference: the pre-rewrite counting recursion — a fresh
// UpperBound(window.end) per recursion call, LowerBound(window.start)
// per window, two binary searches per prefix-domination probe, and a
// window list recomputed per match. Counts, window counts, and memo
// hits must match exactly across ~100 seeded random graphs, every
// catalog motif plus a general fan-out motif, degenerate inputs, and
// engine thread counts {1, 2, 4, 8}.
#include "core/counter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/motif_catalog.h"
#include "core/sliding_window.h"
#include "core/structural_match.h"
#include "engine/query_engine.h"
#include "test_util.h"
#include "util/random.h"

namespace flowmotif {
namespace {

using testing_util::MakeGraph;

// ---------------------------------------------------------------------------
// Naive reference: the pre-rewrite counter, kept verbatim — every
// recursion call re-derives the window limit with UpperBound, the
// domination rule probes HasElementInOpenClosed, each window allocates
// fresh memo maps, and each match recomputes its window list.
// ---------------------------------------------------------------------------

struct ReferenceWindowCounter {
  const std::vector<const EdgeSeries*>* series;
  Window window;
  Flow phi;
  int num_edges;
  std::vector<std::unordered_map<size_t, int64_t>> memo;
  int64_t memo_hits = 0;

  int64_t Count(int level, size_t first) {
    const EdgeSeries& s = *(*series)[static_cast<size_t>(level)];
    const size_t limit = s.UpperBound(window.end);
    if (first >= limit) return 0;

    if (level == num_edges - 1) {
      return s.FlowSum(first, limit - 1) >= phi ? 1 : 0;
    }

    auto& level_memo = memo[static_cast<size_t>(level)];
    if (auto it = level_memo.find(first); it != level_memo.end()) {
      ++memo_hits;
      return it->second;
    }

    const EdgeSeries& next = *(*series)[static_cast<size_t>(level) + 1];
    int64_t total = 0;
    Flow prefix_flow = 0.0;
    for (size_t j = first; j < limit; ++j) {
      prefix_flow += s.flow(j);
      const Timestamp t_j = s.time(j);
      if (j + 1 < limit) {
        const Timestamp t_next = s.time(j + 1);
        if (!next.HasElementInOpenClosed(t_j, t_next)) continue;
      }
      if (prefix_flow < phi) continue;
      total += Count(level + 1, next.UpperBound(t_j));
    }
    level_memo.emplace(first, total);
    return total;
  }
};

std::vector<const EdgeSeries*> ResolveSeries(const TimeSeriesGraph& graph,
                                             const Motif& motif,
                                             const MatchBinding& binding) {
  std::vector<const EdgeSeries*> series(
      static_cast<size_t>(motif.num_edges()));
  for (int i = 0; i < motif.num_edges(); ++i) {
    const auto [src, dst] = motif.edge(i);
    const EdgeSeries* s = graph.FindSeries(binding[static_cast<size_t>(src)],
                                           binding[static_cast<size_t>(dst)]);
    if (s == nullptr) ADD_FAILURE() << "unresolvable binding";
    series[static_cast<size_t>(i)] = s;
  }
  return series;
}

InstanceCounter::Result ReferenceRunOnMatches(
    const TimeSeriesGraph& graph, const Motif& motif, Timestamp delta,
    Flow phi, const std::vector<MatchBinding>& matches) {
  InstanceCounter::Result result;
  for (const MatchBinding& binding : matches) {
    ++result.num_structural_matches;
    const std::vector<const EdgeSeries*> series =
        ResolveSeries(graph, motif, binding);
    const std::vector<Window> windows =
        ComputeProcessedWindows(*series.front(), *series.back(), delta);
    result.num_windows += static_cast<int64_t>(windows.size());
    for (const Window& window : windows) {
      ReferenceWindowCounter counter;
      counter.series = &series;
      counter.window = window;
      counter.phi = phi;
      counter.num_edges = motif.num_edges();
      counter.memo.assign(static_cast<size_t>(motif.num_edges()), {});
      result.num_instances +=
          counter.Count(0, series[0]->LowerBound(window.start));
      result.memo_hits += counter.memo_hits;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Test drivers
// ---------------------------------------------------------------------------

/// Random small graph, the same recipe as dp_equivalence_test.cc:
/// integer-quantized flows and a narrow time range so duplicate
/// timestamps and phi boundary cases are common.
TimeSeriesGraph RandomGraph(uint64_t seed, int num_vertices,
                            int num_interactions, Timestamp time_span) {
  Rng rng(seed);
  InteractionGraph g;
  for (int i = 0; i < num_interactions; ++i) {
    const auto src = static_cast<VertexId>(
        rng.NextBounded(static_cast<uint64_t>(num_vertices)));
    auto dst = static_cast<VertexId>(
        rng.NextBounded(static_cast<uint64_t>(num_vertices)));
    if (dst == src) dst = (dst + 1) % num_vertices;
    const auto t = static_cast<Timestamp>(
        rng.NextBounded(static_cast<uint64_t>(time_span)));
    const Flow f = 1.0 + static_cast<Flow>(rng.NextBounded(5));
    const Status s = g.AddEdge(src, dst, t, f);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return TimeSeriesGraph::Build(g);
}

/// All motifs the equivalence sweep runs: the ten catalog presets plus
/// one general fan-out shape (per-first-edge P1 units, same recursion).
std::vector<Motif> AllTestMotifs() {
  std::vector<Motif> motifs = MotifCatalog::All();
  motifs.push_back(*Motif::Parse("0>1,0>2", "fanout"));
  return motifs;
}

void ExpectResultsEqual(const InstanceCounter::Result& actual,
                        const InstanceCounter::Result& expected,
                        const std::string& label) {
  ASSERT_EQ(actual.num_instances, expected.num_instances) << label;
  ASSERT_EQ(actual.num_structural_matches, expected.num_structural_matches)
      << label;
  ASSERT_EQ(actual.num_windows, expected.num_windows) << label;
  // The cursor port keeps the recursion and memo structure unchanged,
  // so even the memo hit counter must agree.
  ASSERT_EQ(actual.memo_hits, expected.memo_hits) << label;
}

void CheckGraphAllMotifs(const TimeSeriesGraph& graph, Timestamp delta,
                         Flow phi, const std::string& label) {
  for (const Motif& motif : AllTestMotifs()) {
    const StructuralMatcher matcher(graph, motif);
    const std::vector<MatchBinding> matches = matcher.FindAllMatches();
    const InstanceCounter counter(graph, motif, delta, phi);
    const InstanceCounter::Result actual = counter.RunOnMatches(matches);
    const InstanceCounter::Result expected =
        ReferenceRunOnMatches(graph, motif, delta, phi, matches);
    ExpectResultsEqual(actual, expected,
                       label + " motif=" + motif.name() +
                           " delta=" + std::to_string(delta) +
                           " phi=" + std::to_string(phi));
    if (testing::Test::HasFailure()) return;
  }
}

TEST(CounterEquivalenceTest, RandomGraphsAllMotifPresets) {
  // ~100 seeded random graphs across a spread of densities and deltas;
  // phi alternates between off and binding so both prune paths run.
  int graphs = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    for (const Timestamp delta : {Timestamp{3}, Timestamp{9}, Timestamp{25},
                                  Timestamp{0}}) {
      const int num_vertices = 4 + static_cast<int>(seed % 3);
      const int num_interactions = 40 + static_cast<int>(seed * 7 % 50);
      const TimeSeriesGraph graph =
          RandomGraph(seed * 1000003u + static_cast<uint64_t>(delta),
                      num_vertices, num_interactions, /*time_span=*/60);
      ++graphs;
      const Flow phi = seed % 2 == 0 ? 0.0 : 6.0;
      CheckGraphAllMotifs(graph, delta, phi, "seed=" + std::to_string(seed));
      if (testing::Test::HasFailure()) return;
    }
  }
  EXPECT_EQ(graphs, 100);
}

TEST(CounterEquivalenceTest, DuplicateTimestamps) {
  // Many interactions on the same instant: zero-length windows,
  // UpperBound vs LowerBound runs, and duplicate anchors all get
  // exercised, with and without a binding phi.
  const TimeSeriesGraph graph = MakeGraph({
      {0, 1, 10, 2.0}, {0, 1, 10, 3.0}, {0, 1, 10, 1.0}, {0, 1, 12, 4.0},
      {1, 2, 10, 1.0}, {1, 2, 11, 2.0}, {1, 2, 11, 5.0}, {1, 2, 13, 1.0},
      {2, 0, 11, 3.0}, {2, 0, 13, 3.0}, {2, 0, 13, 2.0},
  });
  for (const Timestamp delta : {Timestamp{0}, Timestamp{1}, Timestamp{3},
                                Timestamp{10}}) {
    for (const Flow phi : {Flow{0.0}, Flow{4.0}}) {
      CheckGraphAllMotifs(graph, delta, phi, "duplicate-timestamps");
      if (testing::Test::HasFailure()) return;
    }
  }
}

TEST(CounterEquivalenceTest, DeltaZero) {
  // delta = 0: every window is a single instant; only same-timestamp
  // elements are in range, and strict time-respecting order makes most
  // multi-edge instances impossible.
  const TimeSeriesGraph graph = MakeGraph({
      {0, 1, 5, 2.0}, {0, 1, 7, 1.0},
      {1, 2, 5, 3.0}, {1, 2, 7, 2.0},
      {2, 0, 5, 1.0}, {2, 0, 9, 4.0},
  });
  CheckGraphAllMotifs(graph, 0, 0.0, "delta-zero");
}

TEST(CounterEquivalenceTest, SingleElementSeries) {
  const TimeSeriesGraph graph = MakeGraph({
      {0, 1, 10, 2.0},
      {1, 2, 11, 3.0},
      {2, 0, 12, 4.0},
  });
  for (const Timestamp delta : {Timestamp{0}, Timestamp{1}, Timestamp{2},
                                Timestamp{5}}) {
    CheckGraphAllMotifs(graph, delta, 0.0, "single-element");
    if (testing::Test::HasFailure()) return;
  }
}

TEST(CounterEquivalenceTest, EngineCountMatchesReferenceAcrossThreads) {
  // The engine's kCount batches, reading window lists through the
  // per-query SharedWindowCache from concurrent workers, must reproduce
  // the naive reference for every thread count.
  for (uint64_t seed : {7u, 21u}) {
    const TimeSeriesGraph graph = RandomGraph(seed, 6, 90, 50);
    for (const char* name : {"M(3,2)", "M(3,3)", "M(4,3)", "M(5,4)"}) {
      const Motif motif = *MotifCatalog::ByName(name);
      const StructuralMatcher matcher(graph, motif);
      const InstanceCounter::Result expected = ReferenceRunOnMatches(
          graph, motif, 12, 3.0, matcher.FindAllMatches());
      QueryEngine engine(graph);
      QueryOptions options;
      options.mode = QueryMode::kCount;
      options.delta = 12;
      options.phi = 3.0;
      for (int threads : {1, 2, 4, 8}) {
        options.num_threads = threads;
        const QueryResult result = engine.Run(motif, options);
        const std::string label =
            std::string(name) + " threads=" + std::to_string(threads);
        ASSERT_EQ(result.stats.num_instances, expected.num_instances)
            << label;
        ASSERT_EQ(result.stats.num_structural_matches,
                  expected.num_structural_matches)
            << label;
        ASSERT_EQ(result.stats.num_windows_processed, expected.num_windows)
            << label;
        ASSERT_EQ(result.memo_hits, expected.memo_hits) << label;
        if (testing::Test::HasFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace flowmotif
