// What a recorded enumeration skeleton promises (core/skeleton.h):
//  * replaying the trace against the real graph's prefix arena
//    reproduces the enumeration's instance count exactly — paper
//    graphs, seeded random graphs, every catalog motif;
//  * the trace is phi-free: one recording answers any phi threshold,
//    and the EvaluateFlows/CountWithFlows split answers a whole phi
//    grid from one flow evaluation;
//  * the trace is flow-free: one recording answers any flow assignment
//    over the same timestamps, so replaying permuted arenas equals
//    enumerating the corresponding WithPermutedFlows views;
//  * FlowPermutationStream consumes the RNG stream exactly as
//    WithPermutedFlows does — permutation i carries view i's flows;
//  * the trace budget turns recording into a clean bypass (false, no
//    skeleton), and arenas are gated on topology identity.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/enumerator.h"
#include "core/motif_catalog.h"
#include "core/skeleton.h"
#include "core/structural_match.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "test_util.h"
#include "util/random.h"

namespace flowmotif {
namespace {

using testing_util::MakeGraph;
using testing_util::PaperFig2Graph;
using testing_util::PaperFig7Graph;

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
    // Integer flows keep every comparison exact across orderings.
    const Flow f = 1.0 + static_cast<Flow>(rng.NextBounded(6));
    const Status s = g.AddEdge(src, dst, t, f);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return TimeSeriesGraph::Build(g);
}

std::vector<Flow> AllFlows(const TimeSeriesGraph& graph) {
  std::vector<Flow> flows;
  for (const TimeSeriesGraph::PairEdge& pe : graph.pairs()) {
    for (size_t i = 0; i < pe.series.size(); ++i) {
      flows.push_back(pe.series.flow(i));
    }
  }
  return flows;
}

/// The enumeration oracle: full Algorithm 1 count at (delta, phi).
int64_t OracleCount(const TimeSeriesGraph& graph, const Motif& motif,
                    const std::vector<MatchBinding>& matches, Timestamp delta,
                    Flow phi) {
  EnumerationOptions opts;
  opts.delta = delta;
  opts.phi = phi;
  const FlowMotifEnumerator enumerator(graph, motif, opts);
  return enumerator.RunOnMatches(matches).num_instances;
}

TEST(SkeletonTest, ReplayMatchesEnumeratorOnPaperGraphs) {
  for (const TimeSeriesGraph& graph : {PaperFig2Graph(), PaperFig7Graph()}) {
    for (const Motif& motif : MotifCatalog::All()) {
      const StructuralMatcher matcher(graph, motif);
      const std::vector<MatchBinding> matches = matcher.FindAllMatches();
      for (const Timestamp delta : {0, 5, 10, 25}) {
        EnumerationSkeleton skeleton;
        ASSERT_TRUE(skeleton.Record(graph, motif, delta, matches));
        FlowPrefixArena arena;
        arena.FillFromGraph(graph);
        SkeletonReplayer replayer(&skeleton);
        for (const Flow phi : {0.0, 3.0, 5.0, 8.0, 100.0}) {
          EXPECT_EQ(replayer.Count(arena, phi),
                    OracleCount(graph, motif, matches, delta, phi))
              << motif.name() << " delta=" << delta << " phi=" << phi;
        }
      }
    }
  }
}

TEST(SkeletonTest, ReplayMatchesEnumeratorOnSeededRandomGraphs) {
  for (const uint64_t seed : {3u, 11u, 29u, 47u}) {
    const TimeSeriesGraph graph = RandomGraph(seed, 6, 90, 50);
    for (const Motif& motif : MotifCatalog::All()) {
      const StructuralMatcher matcher(graph, motif);
      const std::vector<MatchBinding> matches = matcher.FindAllMatches();
      for (const Timestamp delta : {4, 12}) {
        EnumerationSkeleton skeleton;
        ASSERT_TRUE(skeleton.Record(graph, motif, delta, matches));
        FlowPrefixArena arena;
        arena.FillFromGraph(graph);
        SkeletonReplayer replayer(&skeleton);
        for (const Flow phi : {0.0, 2.0, 4.0, 9.0}) {
          EXPECT_EQ(replayer.Count(arena, phi),
                    OracleCount(graph, motif, matches, delta, phi))
              << "seed=" << seed << " " << motif.name() << " delta=" << delta
              << " phi=" << phi;
        }
      }
    }
  }
}

TEST(SkeletonTest, PhiSweepOnOneRecordingMatchesPerPhiEnumeration) {
  const TimeSeriesGraph graph = RandomGraph(17, 6, 110, 60);
  const Motif motif = *MotifCatalog::ByName("M(4,3)");
  const StructuralMatcher matcher(graph, motif);
  const std::vector<MatchBinding> matches = matcher.FindAllMatches();
  const Timestamp delta = 10;

  EnumerationSkeleton skeleton;
  ASSERT_TRUE(skeleton.Record(graph, motif, delta, matches));
  FlowPrefixArena arena;
  arena.FillFromGraph(graph);
  SkeletonReplayer replayer(&skeleton);

  // One flow evaluation serves the whole phi grid.
  replayer.EvaluateFlows(arena);
  for (const Flow phi : {0.0, 1.0, 2.0, 3.5, 5.0, 7.0, 11.0, 50.0}) {
    EXPECT_EQ(replayer.CountWithFlows(phi),
              OracleCount(graph, motif, matches, delta, phi))
        << "phi=" << phi;
    // The split path equals the fused single-phi pass.
    EXPECT_EQ(replayer.CountWithFlows(phi), replayer.Count(arena, phi));
  }
}

TEST(SkeletonTest, PermutationStreamMatchesWithPermutedFlows) {
  for (const uint64_t seed : {7u, 99u}) {
    const TimeSeriesGraph graph = RandomGraph(seed * 13 + 1, 7, 120, 70);
    FlowPermutationStream stream(graph, seed);
    Rng rng(seed);
    std::vector<Flow> flows;
    for (int draw = 0; draw < 5; ++draw) {
      stream.NextPermutationInto(&flows);
      const TimeSeriesGraph view = graph.WithPermutedFlows(&rng);
      EXPECT_EQ(flows, AllFlows(view)) << "seed=" << seed << " draw=" << draw;
    }
  }
}

TEST(SkeletonTest, ReplayOnPermutedArenasMatchesEnumerationOnViews) {
  const TimeSeriesGraph graph = RandomGraph(23, 6, 100, 55);
  const Motif motif = *MotifCatalog::ByName("M(3,3)");
  const StructuralMatcher matcher(graph, motif);
  const std::vector<MatchBinding> matches = matcher.FindAllMatches();
  const Timestamp delta = 9;
  const Flow phi = 4.0;

  EnumerationSkeleton skeleton;
  ASSERT_TRUE(skeleton.Record(graph, motif, delta, matches));
  SkeletonReplayer replayer(&skeleton);
  FlowPrefixArena arena;

  FlowPermutationStream stream(graph, 4242);
  Rng rng(4242);
  std::vector<Flow> flows;
  for (int draw = 0; draw < 4; ++draw) {
    stream.NextPermutationInto(&flows);
    arena.FillFromFlows(graph, flows);
    // The view shares the graph's timestamps, so the one recording made
    // on the real graph serves the view's flow assignment.
    const TimeSeriesGraph view = graph.WithPermutedFlows(&rng);
    EXPECT_EQ(replayer.Count(arena, phi),
              OracleCount(view, motif, matches, delta, phi))
        << "draw=" << draw;
  }
}

TEST(SkeletonTest, TraceBudgetBypassesRecordingCleanly) {
  const TimeSeriesGraph graph = PaperFig7Graph();
  const Motif motif = *MotifCatalog::ByName("M(3,3)");
  const StructuralMatcher matcher(graph, motif);
  const std::vector<MatchBinding> matches = matcher.FindAllMatches();

  EnumerationSkeleton skeleton;
  EnumerationSkeleton::Options tiny;
  tiny.max_edges = 1;
  EXPECT_FALSE(skeleton.Record(graph, motif, 20, matches, nullptr, tiny));
  EXPECT_FALSE(skeleton.recorded());
  EXPECT_EQ(skeleton.num_edges(), 0u);

  // The same object records fine once the budget allows it.
  ASSERT_TRUE(skeleton.Record(graph, motif, 20, matches, nullptr));
  EXPECT_TRUE(skeleton.recorded());
  EXPECT_GT(skeleton.num_edges(), 0u);
  FlowPrefixArena arena;
  arena.FillFromGraph(graph);
  SkeletonReplayer replayer(&skeleton);
  EXPECT_EQ(replayer.Count(arena, 0.0),
            OracleCount(graph, motif, matches, 20, 0.0));
}

TEST(SkeletonTest, ArenaAndReplayGateOnTopologyIdentity) {
  const TimeSeriesGraph graph = RandomGraph(31, 5, 60, 40);
  const TimeSeriesGraph copy = graph.DeepCopy();  // fresh identity
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  const StructuralMatcher matcher(graph, motif);
  const std::vector<MatchBinding> matches = matcher.FindAllMatches();

  EnumerationSkeleton skeleton;
  ASSERT_TRUE(skeleton.Record(graph, motif, 8, matches, nullptr));
  EXPECT_EQ(skeleton.topology_identity(), graph.topology_identity());

  // An arena filled from a different topology identity must not be
  // replayed against this recording, and an arena must not be refilled
  // across identities.
  FlowPrefixArena copy_arena;
  copy_arena.FillFromGraph(copy);
  SkeletonReplayer replayer(&skeleton);
  EXPECT_DEATH(replayer.Count(copy_arena, 0.0), "Check failed");
  FlowPrefixArena arena;
  arena.FillFromGraph(graph);
  EXPECT_DEATH(arena.FillFromGraph(copy), "Check failed");
}

TEST(SkeletonTest, EmptyMatchListRecordsAndCountsZero) {
  const TimeSeriesGraph graph = PaperFig2Graph();
  const Motif motif = *MotifCatalog::ByName("M(3,3)");
  EnumerationSkeleton skeleton;
  ASSERT_TRUE(skeleton.Record(graph, motif, 10, {}, nullptr));
  EXPECT_EQ(skeleton.num_roots(), 0u);
  FlowPrefixArena arena;
  arena.FillFromGraph(graph);
  SkeletonReplayer replayer(&skeleton);
  EXPECT_EQ(replayer.Count(arena, 0.0), 0);
}

}  // namespace
}  // namespace flowmotif
