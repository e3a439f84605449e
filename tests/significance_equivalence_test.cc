// Byte-identical equivalence of the significance analyzer's one
// ensemble pass (skeleton replay against flat prefix arenas, or
// enumeration on flow views sharing timestamp storage through one
// cross-graph SharedWindowCache) against a retained pre-refactor
// reference: deep-copying WithPermutedFlows (fresh timestamp/topology
// storage per randomized graph) plus per-graph enumeration with no
// shared cache. Real counts, random counts, z-scores, and p-values must
// match exactly across ~50 seeded random graphs, every catalog motif,
// replayed and enumerated motifs mixed in one pass, and pool sizes
// {1, 2, 4, 8}.
#include "core/significance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/enumerator.h"
#include "core/motif_catalog.h"
#include "core/skeleton.h"
#include "core/structural_match.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "test_util.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace flowmotif {
namespace {

// ---------------------------------------------------------------------------
// Retained reference: the pre-refactor analyzer, kept verbatim in
// behavior — every randomized graph is a full deep copy with freshly
// owned storage (TimeSeriesGraph::DeepCopy + in-place ReplaceFlows,
// exactly what the copying WithPermutedFlows did), every graph gets a
// fresh enumerator with no injected cache, and the ensemble is redrawn
// from the seed for every motif.
// ---------------------------------------------------------------------------

/// The copying WithPermutedFlows: collect flows in (pair, index) order,
/// shuffle the multiset, write back in the same order — consuming the
/// RNG stream exactly as the view-based implementation does.
TimeSeriesGraph ReferencePermutedCopy(const TimeSeriesGraph& graph,
                                      Rng* rng) {
  std::vector<Flow> all_flows;
  for (const TimeSeriesGraph::PairEdge& pe : graph.pairs()) {
    for (size_t i = 0; i < pe.series.size(); ++i) {
      all_flows.push_back(pe.series.flow(i));
    }
  }
  rng->Shuffle(&all_flows);

  TimeSeriesGraph out = graph.DeepCopy();
  size_t cursor = 0;
  for (int64_t p = 0; p < out.num_pairs(); ++p) {
    // The graph API is read-only; the reference mutates its own deep
    // copy in place through ReplaceFlows, so the const_cast strips only
    // the accessor's constness (the underlying object is non-const).
    const EdgeSeries& series = out.pair(static_cast<size_t>(p)).series;
    std::vector<Flow> new_flows(series.size());
    for (size_t i = 0; i < new_flows.size(); ++i) {
      new_flows[i] = all_flows[cursor++];
    }
    const_cast<EdgeSeries&>(series).ReplaceFlows(new_flows);
  }
  EXPECT_EQ(cursor, all_flows.size());
  return out;
}

SignificanceAnalyzer::MotifReport ReferenceAnalyze(
    const TimeSeriesGraph& graph, const Motif& motif,
    const SignificanceAnalyzer::Options& options) {
  SignificanceAnalyzer::MotifReport report;
  report.motif_name = motif.name();

  EnumerationOptions enum_options;
  enum_options.delta = options.delta;
  enum_options.phi = options.phi;

  const StructuralMatcher matcher(graph, motif);
  const std::vector<MatchBinding> matches = matcher.FindAllMatches();

  Rng rng(options.seed);
  const auto count_on = [&](const TimeSeriesGraph& target) {
    FlowMotifEnumerator enumerator(target, motif, enum_options);
    return enumerator.RunOnMatches(matches);
  };
  report.real_count = count_on(graph).num_instances;
  for (int i = 0; i < options.num_random_graphs; ++i) {
    const TimeSeriesGraph randomized = ReferencePermutedCopy(graph, &rng);
    report.random_counts.push_back(
        static_cast<double>(count_on(randomized).num_instances));
  }

  report.random_summary = Summarize(report.random_counts);
  report.z_score =
      ZScore(static_cast<double>(report.real_count), report.random_counts);
  report.p_value = EmpiricalPValue(static_cast<double>(report.real_count),
                                   report.random_counts);
  return report;
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

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

void ExpectReportsEqual(const SignificanceAnalyzer::MotifReport& expected,
                        const SignificanceAnalyzer::MotifReport& actual,
                        const std::string& context) {
  EXPECT_EQ(expected.motif_name, actual.motif_name) << context;
  EXPECT_EQ(expected.real_count, actual.real_count) << context;
  EXPECT_EQ(expected.random_counts, actual.random_counts) << context;
  EXPECT_EQ(expected.z_score, actual.z_score) << context;
  EXPECT_EQ(expected.p_value, actual.p_value) << context;
  EXPECT_EQ(expected.random_summary.mean, actual.random_summary.mean)
      << context;
  EXPECT_EQ(expected.random_summary.stddev, actual.random_summary.stddev)
      << context;
}

SignificanceAnalyzer::Options BaseOptions(uint64_t seed) {
  SignificanceAnalyzer::Options options;
  options.num_random_graphs = 4;
  options.seed = seed * 31 + 5;
  options.delta = 8;
  options.phi = 3.0;
  return options;
}

// Every catalog motif on ~50 seeded random graphs, serial analyzer:
// the ensemble pass must reproduce the copying reference bit for bit.
TEST(SignificanceEquivalenceTest, CatalogMotifsOnSeededGraphs) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const TimeSeriesGraph graph = RandomGraph(seed, 6, 60, 40);
    const SignificanceAnalyzer::Options options = BaseOptions(seed);
    const SignificanceAnalyzer analyzer(graph, options);
    for (const Motif& motif : MotifCatalog::All()) {
      ExpectReportsEqual(ReferenceAnalyze(graph, motif, options),
                         analyzer.Analyze(motif),
                         "seed=" + std::to_string(seed) +
                             " motif=" + motif.name());
    }
  }
}

// Pools {1, 2, 4, 8}: the parallel pass must equal the serial copying
// reference for interior and non-interior motifs alike.
TEST(SignificanceEquivalenceTest, PoolSizeSweep) {
  const std::vector<Motif> motifs = {*MotifCatalog::ByName("M(3,3)"),
                                     *MotifCatalog::ByName("M(4,3)"),
                                     *MotifCatalog::ByName("M(5,4)"),
                                     *MotifCatalog::ByName("M(4,4)C")};
  for (uint64_t seed : {3u, 11u, 27u}) {
    const TimeSeriesGraph graph = RandomGraph(seed, 6, 70, 30);
    SignificanceAnalyzer::Options options = BaseOptions(seed);
    for (const Motif& motif : motifs) {
      const SignificanceAnalyzer::MotifReport expected =
          ReferenceAnalyze(graph, motif, options);
      for (const int threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        options.pool = &pool;
        const SignificanceAnalyzer analyzer(graph, options);
        ExpectReportsEqual(expected, analyzer.Analyze(motif),
                           "seed=" + std::to_string(seed) +
                               " motif=" + motif.name() +
                               " threads=" + std::to_string(threads));
      }
      options.pool = nullptr;
    }
  }
}

// AnalyzeAll shares one ensemble and one cache across motifs; each
// report must still equal the single-motif Analyze (and hence the
// reference), in any set order.
TEST(SignificanceEquivalenceTest, AnalyzeAllMatchesPerMotifAnalyze) {
  const TimeSeriesGraph graph = RandomGraph(17, 6, 80, 40);
  const SignificanceAnalyzer::Options options = BaseOptions(17);
  const SignificanceAnalyzer analyzer(graph, options);

  std::vector<Motif> motifs(MotifCatalog::All());
  const std::vector<SignificanceAnalyzer::MotifReport> forward =
      analyzer.AnalyzeAll(motifs);
  ASSERT_EQ(forward.size(), motifs.size());
  for (size_t i = 0; i < motifs.size(); ++i) {
    ExpectReportsEqual(ReferenceAnalyze(graph, motifs[i], options),
                       forward[i], "forward " + motifs[i].name());
  }

  std::vector<Motif> reversed(motifs.rbegin(), motifs.rend());
  const std::vector<SignificanceAnalyzer::MotifReport> backward =
      analyzer.AnalyzeAll(reversed);
  ASSERT_EQ(backward.size(), motifs.size());
  for (size_t i = 0; i < motifs.size(); ++i) {
    ExpectReportsEqual(forward[i], backward[motifs.size() - 1 - i],
                       "reversed " + motifs[i].name());
  }
}

// The three execution paths — skeleton replay (default), replay
// disabled, and replay requested but bypassed by a tiny trace budget —
// must all equal the copying reference, and the report must say which
// path ran.
TEST(SignificanceEquivalenceTest, ReplayOffAndForcedBypassMatchReference) {
  for (const uint64_t seed : {7u, 19u}) {
    const TimeSeriesGraph graph = RandomGraph(seed, 6, 70, 35);
    const SignificanceAnalyzer::Options base = BaseOptions(seed);
    const Motif motif = *MotifCatalog::ByName("M(4,3)");
    const SignificanceAnalyzer::MotifReport expected =
        ReferenceAnalyze(graph, motif, base);

    SignificanceAnalyzer::Options replay_on = base;
    const SignificanceAnalyzer with_replay(graph, replay_on);
    const SignificanceAnalyzer::MotifReport on_report =
        with_replay.Analyze(motif);
    ExpectReportsEqual(expected, on_report, "replay on");
    EXPECT_TRUE(on_report.used_skeleton_replay);
    EXPECT_GT(on_report.skeleton_edges, 0);

    SignificanceAnalyzer::Options replay_off = base;
    replay_off.skeleton_replay = false;
    const SignificanceAnalyzer without_replay(graph, replay_off);
    const SignificanceAnalyzer::MotifReport off_report =
        without_replay.Analyze(motif);
    ExpectReportsEqual(expected, off_report, "replay off");
    EXPECT_FALSE(off_report.used_skeleton_replay);
    EXPECT_EQ(off_report.skeleton_edges, 0);

    // Budget bypass: recording consults no RNG, so falling back after a
    // bypassed recording must leave the seeded stream — and the report —
    // exactly as skeleton_replay=false produces.
    SignificanceAnalyzer::Options bypass = base;
    bypass.max_skeleton_edges = 1;
    const SignificanceAnalyzer bypassed(graph, bypass);
    const SignificanceAnalyzer::MotifReport bypass_report =
        bypassed.Analyze(motif);
    ExpectReportsEqual(expected, bypass_report, "budget bypass");
    EXPECT_FALSE(bypass_report.used_skeleton_replay);

    // AnalyzeAll under a bypass budget enumerates within its one pass;
    // the reports must be unchanged.
    const std::vector<SignificanceAnalyzer::MotifReport> all =
        bypassed.AnalyzeAll({motif});
    ASSERT_EQ(all.size(), 1u);
    ExpectReportsEqual(expected, all[0], "AnalyzeAll budget bypass");
  }
}

// One pass that replays some motifs and enumerates others: a trace
// budget between the catalog's smallest and largest recordings bypasses
// the motifs above it, and a general fan-out motif rides along. Every
// AnalyzeAll report must equal the reference and the per-motif Analyze,
// and used_skeleton_replay must name the path each motif took.
TEST(SignificanceEquivalenceTest, MixedReplayAndEnumerationInOnePass) {
  const TimeSeriesGraph graph = RandomGraph(23, 6, 90, 40);
  SignificanceAnalyzer::Options options = BaseOptions(23);
  std::vector<Motif> motifs(MotifCatalog::All());
  motifs.push_back(*Motif::FromEdgeList({{0, 1}, {0, 2}}, "FanOut2"));

  // Each motif's full trace size decides its path under the budget.
  std::vector<size_t> edges;
  for (const Motif& motif : motifs) {
    EnumerationSkeleton skeleton;
    ASSERT_TRUE(skeleton.Record(graph, motif, options.delta,
                                StructuralMatcher(graph, motif)
                                    .FindAllMatches()));
    edges.push_back(skeleton.num_edges());
  }
  std::vector<size_t> sorted = edges;
  std::sort(sorted.begin(), sorted.end());
  options.max_skeleton_edges = sorted[sorted.size() / 2];
  ASSERT_LT(sorted.front(), options.max_skeleton_edges);
  ASSERT_GT(sorted.back(), options.max_skeleton_edges);

  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    options.pool = &pool;
    const SignificanceAnalyzer analyzer(graph, options);
    const std::vector<SignificanceAnalyzer::MotifReport> reports =
        analyzer.AnalyzeAll(motifs);
    ASSERT_EQ(reports.size(), motifs.size());
    for (size_t i = 0; i < motifs.size(); ++i) {
      const std::string context =
          motifs[i].name() + " threads=" + std::to_string(threads);
      ExpectReportsEqual(ReferenceAnalyze(graph, motifs[i], options),
                         reports[i], context);
      ExpectReportsEqual(analyzer.Analyze(motifs[i]), reports[i],
                         context + " vs Analyze");
      EXPECT_EQ(reports[i].used_skeleton_replay,
                edges[i] <= options.max_skeleton_edges)
          << context;
      EXPECT_EQ(reports[i].skeleton_edges,
                reports[i].used_skeleton_replay
                    ? static_cast<int64_t>(edges[i])
                    : 0)
          << context;
    }
  }
}

// Degenerate shapes: delta = 0 windows, duplicate timestamps, phi = 0
// (permutation cannot change counts at all), single-interaction series.
TEST(SignificanceEquivalenceTest, DegenerateInputs) {
  const TimeSeriesGraph dup = testing_util::MakeGraph({
      {0, 1, 5, 2.0}, {0, 1, 5, 3.0}, {1, 2, 5, 1.0}, {1, 2, 7, 4.0},
      {2, 0, 5, 2.0}, {2, 0, 9, 1.0}, {2, 3, 9, 5.0},
  });
  for (const Timestamp delta : {Timestamp{0}, Timestamp{4}}) {
    for (const Flow phi : {0.0, 2.5}) {
      SignificanceAnalyzer::Options options;
      options.num_random_graphs = 5;
      options.seed = 99;
      options.delta = delta;
      options.phi = phi;
      const SignificanceAnalyzer analyzer(dup, options);
      for (const char* name : {"M(3,2)", "M(3,3)", "M(4,3)"}) {
        const Motif motif = *MotifCatalog::ByName(name);
        ExpectReportsEqual(ReferenceAnalyze(dup, motif, options),
                           analyzer.Analyze(motif),
                           std::string(name) + " delta=" +
                               std::to_string(delta) +
                               " phi=" + std::to_string(phi));
      }
    }
  }
}

}  // namespace
}  // namespace flowmotif
