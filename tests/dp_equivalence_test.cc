// Byte-identical equivalence of the incremental sliding-window DP
// (core/dp.cc: per-match cursors, k-way merged timeline, O(1) offset
// lookups, flat tables) against a retained naive reference: the
// pre-rewrite per-window DP — fresh binary searches and a
// sort+unique timeline per window — driven by a brute-force window
// scan. Flows, tracebacks, windows, and bindings must match exactly
// (operator== on doubles: both sides compute identical min/max chains
// over identical prefix-sum subtractions), across ~100 seeded random
// graphs, every catalog motif plus a general fan-out motif, degenerate
// inputs, and engine thread counts {1, 2, 4, 8}.
#include "core/dp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/enumerator.h"
#include "core/motif_catalog.h"
#include "core/sliding_window.h"
#include "core/structural_match.h"
#include "core/topk.h"
#include "engine/query_engine.h"
#include "test_util.h"
#include "util/random.h"

namespace flowmotif {
namespace {

using testing_util::MakeGraph;

// ---------------------------------------------------------------------------
// Naive reference: the pre-rewrite DP, kept verbatim in spirit — every
// window rebuilds the timeline with push-all + sort + unique and pays
// two binary searches per flow([tj,ti],k) via FlowInClosed. The argmax
// split selection (crossing binary search, {lo, lo-1} probe, strict >)
// is identical, so tracebacks must agree bit for bit.
// ---------------------------------------------------------------------------

/// Brute-force processed-window scan: for every anchor, test the
/// novelty rule by scanning the last series front to back.
std::vector<Window> BruteForceWindows(const EdgeSeries& first,
                                      const EdgeSeries& last,
                                      Timestamp delta) {
  std::vector<Window> windows;
  bool have_processed = false;
  Timestamp prev_end = 0;
  Timestamp prev_anchor = 0;
  for (size_t i = 0; i < first.size(); ++i) {
    const Timestamp anchor = first.time(i);
    if (have_processed && anchor == prev_anchor) continue;
    const Timestamp end = anchor + delta;
    bool has_new = false;
    for (size_t j = 0; j < last.size(); ++j) {
      const Timestamp t = last.time(j);
      has_new = have_processed ? (t > prev_end && t <= end)
                               : (t >= anchor && t <= end);
      if (has_new) break;
    }
    if (!has_new) continue;
    windows.push_back(Window{anchor, end});
    prev_end = end;
    prev_anchor = anchor;
    have_processed = true;
  }
  return windows;
}

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

Flow ReferenceDpOverWindow(const std::vector<const EdgeSeries*>& series,
                           const Motif& motif, const MatchBinding& binding,
                           const Window& window,
                           MaxFlowDpSearcher::Result* result) {
  {
    Flow bound = std::numeric_limits<Flow>::infinity();
    for (const EdgeSeries* s : series) {
      bound = std::min(bound, s->FlowInClosed(window.start, window.end));
    }
    if (bound <= result->max_flow) return 0.0;
  }

  std::vector<Timestamp> timeline;
  for (const EdgeSeries* s : series) {
    const size_t first = s->LowerBound(window.start);
    const size_t limit = s->UpperBound(window.end);
    for (size_t i = first; i < limit; ++i) timeline.push_back(s->time(i));
  }
  std::sort(timeline.begin(), timeline.end());
  timeline.erase(std::unique(timeline.begin(), timeline.end()),
                 timeline.end());
  const size_t tau = timeline.size();
  if (tau == 0) return 0.0;

  const int m = motif.num_edges();
  std::vector<std::vector<Flow>> flow_table(static_cast<size_t>(m));
  std::vector<std::vector<size_t>> choice(static_cast<size_t>(m));
  for (int k = 0; k < m; ++k) {
    flow_table[static_cast<size_t>(k)].assign(tau, 0.0);
    choice[static_cast<size_t>(k)].assign(tau, 0);
  }
  for (size_t i = 0; i < tau; ++i) {
    flow_table[0][i] = series[0]->FlowInClosed(timeline[0], timeline[i]);
  }
  for (int k = 1; k < m; ++k) {
    const EdgeSeries& sk = *series[static_cast<size_t>(k)];
    const auto& prev_row = flow_table[static_cast<size_t>(k) - 1];
    auto& row = flow_table[static_cast<size_t>(k)];
    auto& row_choice = choice[static_cast<size_t>(k)];
    for (size_t i = 1; i < tau; ++i) {
      size_t lo = 1;
      size_t hi = i;
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (prev_row[mid - 1] >=
            sk.FlowInClosed(timeline[mid], timeline[i])) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      Flow best = 0.0;
      size_t best_j = 0;
      for (size_t j : {lo, lo - 1}) {
        if (j < 1 || j > i) continue;
        const Flow value =
            std::min(prev_row[j - 1],
                     sk.FlowInClosed(timeline[j], timeline[i]));
        if (value > best) {
          best = value;
          best_j = j;
        }
      }
      row[i] = best;
      row_choice[i] = best_j;
    }
  }

  const Flow window_best = flow_table[static_cast<size_t>(m) - 1][tau - 1];
  if (window_best <= 0.0 || window_best <= result->max_flow) {
    return window_best;
  }

  MotifInstance instance;
  instance.binding = binding;
  instance.edge_sets.assign(static_cast<size_t>(m), {});
  size_t i = tau - 1;
  for (int k = m - 1; k >= 1; --k) {
    const size_t j = choice[static_cast<size_t>(k)][i];
    EXPECT_GT(j, 0u);
    const EdgeSeries& sk = *series[static_cast<size_t>(k)];
    auto& set = instance.edge_sets[static_cast<size_t>(k)];
    const size_t first = sk.LowerBound(timeline[j]);
    const size_t limit = sk.UpperBound(timeline[i]);
    for (size_t idx = first; idx < limit; ++idx) set.push_back(sk.at(idx));
    i = j - 1;
  }
  {
    const EdgeSeries& s0 = *series[0];
    auto& set = instance.edge_sets[0];
    const size_t first = s0.LowerBound(timeline[0]);
    const size_t limit = s0.UpperBound(timeline[i]);
    for (size_t idx = first; idx < limit; ++idx) set.push_back(s0.at(idx));
  }

  result->found = true;
  result->max_flow = window_best;
  result->best = std::move(instance);
  result->binding = binding;
  result->window = window;
  return window_best;
}

MaxFlowDpSearcher::Result ReferenceRunOnMatches(
    const TimeSeriesGraph& graph, const Motif& motif, Timestamp delta,
    const std::vector<MatchBinding>& matches) {
  MaxFlowDpSearcher::Result result;
  for (const MatchBinding& binding : matches) {
    const std::vector<const EdgeSeries*> series =
        ResolveSeries(graph, motif, binding);
    const std::vector<Window> windows =
        BruteForceWindows(*series.front(), *series.back(), delta);
    result.num_windows += static_cast<int64_t>(windows.size());
    for (const Window& window : windows) {
      ReferenceDpOverWindow(series, motif, binding, window, &result);
    }
  }
  return result;
}

std::vector<MaxFlowDpSearcher::WindowBest> ReferenceRunPerWindow(
    const TimeSeriesGraph& graph, const Motif& motif, Timestamp delta,
    const MatchBinding& binding) {
  const std::vector<const EdgeSeries*> series =
      ResolveSeries(graph, motif, binding);
  const std::vector<Window> windows =
      BruteForceWindows(*series.front(), *series.back(), delta);
  std::vector<MaxFlowDpSearcher::WindowBest> bests;
  for (const Window& window : windows) {
    MaxFlowDpSearcher::Result window_result;
    const Flow flow =
        ReferenceDpOverWindow(series, motif, binding, window, &window_result);
    bests.push_back(MaxFlowDpSearcher::WindowBest{window, flow > 0.0, flow});
  }
  return bests;
}

// ---------------------------------------------------------------------------
// Test drivers
// ---------------------------------------------------------------------------

/// Random small graph: dense enough that path and cyclic motifs match,
/// integer-quantized flows and a narrow time range so duplicate
/// timestamps and flow ties are common (the argmax tie-break paths).
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
/// one general fan-out shape (per-first-edge P1 units, same DP).
std::vector<Motif> AllTestMotifs() {
  std::vector<Motif> motifs = MotifCatalog::All();
  motifs.push_back(*Motif::Parse("0>1,0>2", "fanout"));
  return motifs;
}

void ExpectResultsEqual(const MaxFlowDpSearcher::Result& actual,
                        const MaxFlowDpSearcher::Result& expected,
                        const std::string& label) {
  ASSERT_EQ(actual.found, expected.found) << label;
  ASSERT_EQ(actual.num_windows, expected.num_windows) << label;
  if (!expected.found) return;
  // Exact double equality: both sides compute identical min/max chains
  // over identical prefix-sum subtractions.
  ASSERT_EQ(actual.max_flow, expected.max_flow) << label;
  ASSERT_EQ(actual.binding, expected.binding) << label;
  ASSERT_EQ(actual.window, expected.window) << label;
  ASSERT_EQ(actual.best, expected.best) << label;
}

void CheckGraphAllMotifs(const TimeSeriesGraph& graph, Timestamp delta,
                         const std::string& label) {
  for (const Motif& motif : AllTestMotifs()) {
    const StructuralMatcher matcher(graph, motif);
    const std::vector<MatchBinding> matches = matcher.FindAllMatches();
    const MaxFlowDpSearcher searcher(graph, motif, delta);
    const MaxFlowDpSearcher::Result actual = searcher.RunOnMatches(matches);
    const MaxFlowDpSearcher::Result expected =
        ReferenceRunOnMatches(graph, motif, delta, matches);
    ExpectResultsEqual(actual, expected,
                       label + " motif=" + motif.name() +
                           " delta=" + std::to_string(delta));
    if (testing::Test::HasFailure()) return;
  }
}

TEST(DpEquivalenceTest, RandomGraphsAllMotifPresets) {
  // ~100 seeded random graphs across a spread of densities and deltas.
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
      CheckGraphAllMotifs(graph, delta,
                          "seed=" + std::to_string(seed));
      if (testing::Test::HasFailure()) return;
    }
  }
  EXPECT_EQ(graphs, 100);
}

TEST(DpEquivalenceTest, PerWindowAgreesWithReference) {
  for (uint64_t seed = 50; seed < 55; ++seed) {
    const TimeSeriesGraph graph = RandomGraph(seed, 5, 60, 40);
    for (const Motif& motif : {*MotifCatalog::ByName("M(3,2)"),
                               *MotifCatalog::ByName("M(3,3)")}) {
      const StructuralMatcher matcher(graph, motif);
      const std::vector<MatchBinding> matches = matcher.FindAllMatches();
      const MaxFlowDpSearcher searcher(graph, motif, 10);
      for (const MatchBinding& binding : matches) {
        const std::vector<MaxFlowDpSearcher::WindowBest> actual =
            searcher.RunPerWindow(binding);
        const std::vector<MaxFlowDpSearcher::WindowBest> expected =
            ReferenceRunPerWindow(graph, motif, 10, binding);
        ASSERT_EQ(actual.size(), expected.size());
        for (size_t i = 0; i < actual.size(); ++i) {
          ASSERT_EQ(actual[i].window, expected[i].window);
          ASSERT_EQ(actual[i].found, expected[i].found);
          ASSERT_EQ(actual[i].max_flow, expected[i].max_flow);
        }
      }
    }
  }
}

TEST(DpEquivalenceTest, DuplicateTimestamps) {
  // Many interactions on the same instant: timeline dedup, UpperBound
  // vs LowerBound runs, and zero-length intervals all get exercised.
  const TimeSeriesGraph graph = MakeGraph({
      {0, 1, 10, 2.0}, {0, 1, 10, 3.0}, {0, 1, 10, 1.0}, {0, 1, 12, 4.0},
      {1, 2, 10, 1.0}, {1, 2, 11, 2.0}, {1, 2, 11, 5.0}, {1, 2, 13, 1.0},
      {2, 0, 11, 3.0}, {2, 0, 13, 3.0}, {2, 0, 13, 2.0},
  });
  for (const Timestamp delta : {Timestamp{0}, Timestamp{1}, Timestamp{3},
                                Timestamp{10}}) {
    CheckGraphAllMotifs(graph, delta, "duplicate-timestamps");
    if (testing::Test::HasFailure()) return;
  }
}

TEST(DpEquivalenceTest, DeltaZero) {
  // delta = 0: every window is a single instant; only same-timestamp
  // elements are in range, and strict time-respecting order makes most
  // multi-edge instances impossible.
  const TimeSeriesGraph graph = MakeGraph({
      {0, 1, 5, 2.0}, {0, 1, 7, 1.0},
      {1, 2, 5, 3.0}, {1, 2, 7, 2.0},
      {2, 0, 5, 1.0}, {2, 0, 9, 4.0},
  });
  CheckGraphAllMotifs(graph, 0, "delta-zero");
}

TEST(DpEquivalenceTest, SingleElementSeries) {
  const TimeSeriesGraph graph = MakeGraph({
      {0, 1, 10, 2.0},
      {1, 2, 11, 3.0},
      {2, 0, 12, 4.0},
  });
  for (const Timestamp delta : {Timestamp{0}, Timestamp{1}, Timestamp{2},
                                Timestamp{5}}) {
    CheckGraphAllMotifs(graph, delta, "single-element");
    if (testing::Test::HasFailure()) return;
  }
}

TEST(DpEquivalenceTest, EngineTop1MatchesReferenceAcrossThreads) {
  // The engine's kTop1 batches, each on its own DP scratch, must
  // reproduce the naive reference for every thread count.
  for (uint64_t seed : {7u, 21u}) {
    const TimeSeriesGraph graph = RandomGraph(seed, 6, 90, 50);
    for (const char* name : {"M(3,2)", "M(3,3)", "M(4,3)"}) {
      const Motif motif = *MotifCatalog::ByName(name);
      const StructuralMatcher matcher(graph, motif);
      const MaxFlowDpSearcher::Result expected = ReferenceRunOnMatches(
          graph, motif, 12, matcher.FindAllMatches());
      QueryEngine engine(graph);
      QueryOptions options;
      options.mode = QueryMode::kTop1;
      options.delta = 12;
      for (int threads : {1, 2, 4, 8}) {
        options.num_threads = threads;
        const QueryResult result = engine.Run(motif, options);
        ExpectResultsEqual(result.top1, expected,
                           std::string(name) + " threads=" +
                               std::to_string(threads));
        if (testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(DpEquivalenceTest, ScratchReuseAcrossMatchRangesIsIdentical) {
  // One shared Scratch across many RunOnMatches calls (the engine's
  // batch pattern) vs fresh scratches: identical results. M(3,3) has no
  // interior node, so this also pins the memo-off path: the searcher
  // must not own a window cache at all.
  const TimeSeriesGraph graph = RandomGraph(33, 6, 90, 50);
  const Motif motif = *MotifCatalog::ByName("M(3,3)");
  const StructuralMatcher matcher(graph, motif);
  const MatchList matches =
      MatchList::FromBindings(matcher.FindAllMatches(), motif.num_nodes());
  if (matches.empty()) GTEST_SKIP() << "no matches in random graph";
  const MaxFlowDpSearcher searcher(graph, motif, 12);
  const auto run_fresh = [&](int64_t begin, int64_t end) {
    MaxFlowDpSearcher::Scratch fresh;
    return searcher.RunOnMatches(matches, begin, end, &fresh);
  };

  MaxFlowDpSearcher::Scratch shared;
  for (int64_t split = 1; split < matches.size(); ++split) {
    const MaxFlowDpSearcher::Result left =
        searcher.RunOnMatches(matches, 0, split, &shared);
    const MaxFlowDpSearcher::Result right =
        searcher.RunOnMatches(matches, split, matches.size(), &shared);
    const MaxFlowDpSearcher::Result left_fresh = run_fresh(0, split);
    ExpectResultsEqual(left, left_fresh, "left split=" + std::to_string(split));
    MaxFlowDpSearcher::Result right_fresh = run_fresh(split, matches.size());
    ExpectResultsEqual(right, right_fresh,
                       "right split=" + std::to_string(split));
    if (testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(searcher.window_cache(), nullptr)
      << "M(3,3) has no interior node; the window cache must stay off";
}

/// Complete-bipartite layers L0 -> L1 -> ... with one interaction per
/// pair edge (time = 10 * layer, so chains are time-respecting).
TimeSeriesGraph LayeredGraph(const std::vector<int>& layer_sizes) {
  InteractionGraph g;
  VertexId next = 0;
  std::vector<std::vector<VertexId>> layers;
  for (int size : layer_sizes) {
    std::vector<VertexId> layer;
    for (int i = 0; i < size; ++i) layer.push_back(next++);
    layers.push_back(layer);
  }
  for (size_t l = 0; l + 1 < layers.size(); ++l) {
    for (VertexId u : layers[l]) {
      for (VertexId v : layers[l + 1]) {
        const Status s = g.AddEdge(u, v, static_cast<Timestamp>(l) * 10,
                                   1.0 + static_cast<Flow>((u + v) % 3));
        EXPECT_TRUE(s.ok()) << s.ToString();
      }
    }
  }
  return TimeSeriesGraph::Build(g);
}

TEST(DpEquivalenceTest, WindowCacheHitsAndSaturationStayIdentical) {
  // M(5,4) (path 0-1-2-3-4) has an interior node, so the window cache
  // is live. The layered graph yields 6*6*2*6*6 = 2592 matches over
  // 36*36 = 1296 distinct (first, last) series pairs: more than the
  // 1024-entry default generation, so the cache rotates; each pair
  // repeats (|L2| = 2 interior choices), so hits happen, and the same
  // injected cache carries across chunked RunOnMatches calls and across
  // searchers.
  const TimeSeriesGraph graph = LayeredGraph({6, 6, 2, 6, 6});
  const Motif motif = *MotifCatalog::ByName("M(5,4)");
  const StructuralMatcher matcher(graph, motif);
  const std::vector<MatchBinding> matches = matcher.FindAllMatches();
  ASSERT_EQ(matches.size(), 2592u);

  const MaxFlowDpSearcher::Result expected =
      ReferenceRunOnMatches(graph, motif, 40, matches);
  ASSERT_TRUE(expected.found);

  SharedWindowCache cache(/*delta=*/40);
  const MaxFlowDpSearcher searcher(graph, motif, 40, &cache);
  ASSERT_EQ(searcher.window_cache(), &cache);

  const MatchList list = MatchList::FromBindings(matches, motif.num_nodes());
  const int64_t n = list.size();
  MaxFlowDpSearcher::Scratch shared;
  ExpectResultsEqual(searcher.RunOnMatches(list, 0, n, &shared), expected,
                     "shared pass 1");
  // Second full pass reads the warm (rotated) cache.
  ExpectResultsEqual(searcher.RunOnMatches(list, 0, n, &shared), expected,
                     "shared pass 2 (warm cache)");
  // The 1296 distinct pairs must have rotated the 1024-entry generation.
  EXPECT_GT(cache.num_rotations(), 0);

  // A drastically smaller cap — almost every miss rotates — still
  // yields identical results.
  SharedWindowCache tiny_cache(/*delta=*/40, /*max_entries=*/16);
  const MaxFlowDpSearcher tiny_searcher(graph, motif, 40, &tiny_cache);
  ExpectResultsEqual(tiny_searcher.RunOnMatches(matches), expected,
                     "tiny cache");
  EXPECT_LE(tiny_cache.size(), 2 * 16u);

  // Chunked calls on the same Scratch vs fresh scratches per chunk.
  constexpr int64_t kChunk = 500;
  for (int64_t begin = 0; begin < n; begin += kChunk) {
    const int64_t end = std::min(begin + kChunk, n);
    const MaxFlowDpSearcher::Result chunk_shared =
        searcher.RunOnMatches(list, begin, end, &shared);
    MaxFlowDpSearcher::Scratch fresh;
    const MaxFlowDpSearcher::Result chunk_fresh =
        searcher.RunOnMatches(list, begin, end, &fresh);
    ExpectResultsEqual(chunk_shared, chunk_fresh,
                       "chunk at " + std::to_string(begin));
    if (testing::Test::HasFailure()) return;
  }
}

/// Retained reference for the engine's kCount and kTopK: every match
/// enumerated over its brute-force window list (no window cache or
/// reader involved), instances in serial discovery order.
std::vector<TopKEntry> ReferenceInstances(
    const TimeSeriesGraph& graph, const Motif& motif, Timestamp delta,
    const std::vector<MatchBinding>& matches) {
  EnumerationOptions options;
  options.delta = delta;
  const FlowMotifEnumerator enumerator(graph, motif, options);
  std::vector<TopKEntry> instances;
  for (const MatchBinding& binding : matches) {
    const std::vector<const EdgeSeries*> series =
        ResolveSeries(graph, motif, binding);
    const std::vector<Window> windows =
        BruteForceWindows(*series.front(), *series.back(), delta);
    EnumerationResult unused;
    enumerator.EnumerateMatchWindows(
        binding, windows.data(), windows.data() + windows.size(),
        [&instances](const InstanceView& view) {
          instances.push_back(TopKEntry{view.flow, view.Materialize()});
          return true;
        },
        &unused);
  }
  return instances;
}

TEST(DpEquivalenceTest, EngineModesMatchReferenceThroughRotatingQueryCache) {
  // The previous workload end to end: its 1296 distinct pairs rotate
  // the engine's per-query cache (1024 entries per generation) while,
  // at four threads, every batch's reader shares it. kTop1, kCount and
  // kTopK through Run and RunOnMatches must equal the retained
  // references at threads {1, 4}.
  const TimeSeriesGraph graph = LayeredGraph({6, 6, 2, 6, 6});
  const Motif motif = *MotifCatalog::ByName("M(5,4)");
  const std::vector<MatchBinding> matches =
      StructuralMatcher(graph, motif).FindAllMatches();
  ASSERT_EQ(matches.size(), 2592u);
  constexpr Timestamp kDelta = 40;
  constexpr int64_t kK = 7;

  const MaxFlowDpSearcher::Result expected_top1 =
      ReferenceRunOnMatches(graph, motif, kDelta, matches);
  std::vector<TopKEntry> expected_topk =
      ReferenceInstances(graph, motif, kDelta, matches);
  const auto expected_count = static_cast<int64_t>(expected_topk.size());
  ASSERT_GT(expected_count, kK);
  // Flow descending, ties in discovery order: the engine's rank order.
  std::stable_sort(expected_topk.begin(), expected_topk.end(),
                   [](const TopKEntry& a, const TopKEntry& b) {
                     return a.flow > b.flow;
                   });
  expected_topk.resize(static_cast<size_t>(kK));

  const QueryEngine engine(graph);
  for (const QueryMode mode :
       {QueryMode::kTop1, QueryMode::kCount, QueryMode::kTopK}) {
    for (const int threads : {1, 4}) {
      for (const bool on_matches : {false, true}) {
        QueryOptions options;
        options.mode = mode;
        options.delta = kDelta;
        options.k = kK;
        options.num_threads = threads;
        const QueryResult result = on_matches
                                       ? engine.RunOnMatches(motif, matches,
                                                             options)
                                       : engine.Run(motif, options);
        const std::string label =
            "mode=" + std::to_string(static_cast<int>(mode)) +
            " threads=" + std::to_string(threads) +
            (on_matches ? " RunOnMatches" : " Run");
        ASSERT_TRUE(result.termination.complete()) << label;
        switch (mode) {
          case QueryMode::kTop1:
            ExpectResultsEqual(result.top1, expected_top1, label);
            break;
          case QueryMode::kCount:
            EXPECT_EQ(result.stats.num_instances, expected_count) << label;
            break;
          default:
            ASSERT_EQ(result.topk.size(), expected_topk.size()) << label;
            for (size_t i = 0; i < expected_topk.size(); ++i) {
              EXPECT_EQ(result.topk[i].flow, expected_topk[i].flow)
                  << label << " entry " << i;
              EXPECT_EQ(result.topk[i].instance, expected_topk[i].instance)
                  << label << " entry " << i;
            }
            break;
        }
        if (testing::Test::HasFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace flowmotif
