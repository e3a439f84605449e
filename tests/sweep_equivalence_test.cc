// RunSweep's contract: every cell of the delta x phi grid equals the
// corresponding independent single-point query byte-for-byte —
//  * against kCount runs (the mode a sweep cell replaces) and against
//    kEnumerate instance counts,
//  * for every catalog motif on seeded graphs,
//  * for thread counts {1, 4},
//  * with skeleton replay on and off (and under a forced recording
//    bypass), which also proves the replay and fallback paths agree.
// The recording under every sweep is pool-size-invariant: recording the
// match list's ranges on a pool of {1, 2, 4, 8} threads joins into
// exactly the pool-less trace, decides the same budget abandonment,
// charges the same window total and honours the same stops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/motif_catalog.h"
#include "core/skeleton.h"
#include "core/sliding_window.h"
#include "core/structural_match.h"
#include "engine/query_engine.h"
#include "engine/query_options.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "test_util.h"
#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace flowmotif {
namespace {

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
    const Flow f = 1.0 + static_cast<Flow>(rng.NextBounded(6));
    const Status s = g.AddEdge(src, dst, t, f);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return TimeSeriesGraph::Build(g);
}

/// One single-point kCount query at (delta, phi).
int64_t PointCount(const QueryEngine& engine, const Motif& motif,
                   Timestamp delta, Flow phi, int threads) {
  QueryOptions options;
  options.mode = QueryMode::kCount;
  options.delta = delta;
  options.phi = phi;
  options.num_threads = threads;
  return engine.Run(motif, options).stats.num_instances;
}

TEST(SweepEquivalenceTest, GridMatchesPointQueriesForCatalogMotifs) {
  const SweepQuery sweep{{0, 4, 9, 15}, {0.0, 2.0, 4.0, 7.0}};
  for (const uint64_t seed : {5u, 21u}) {
    const TimeSeriesGraph graph = RandomGraph(seed, 6, 90, 50);
    const QueryEngine engine(graph);
    for (const Motif& motif : MotifCatalog::All()) {
      // Serial single-point reference grid.
      std::vector<int64_t> reference;
      for (const Timestamp delta : sweep.deltas) {
        for (const Flow phi : sweep.phis) {
          reference.push_back(PointCount(engine, motif, delta, phi, 1));
        }
      }
      for (const int threads : {1, 4}) {
        for (const bool replay : {true, false}) {
          QueryOptions options;
          options.num_threads = threads;
          options.skeleton_replay = replay;
          const SweepResult result = engine.RunSweep(motif, sweep, options);
          ASSERT_EQ(result.counts.size(), reference.size());
          EXPECT_EQ(result.counts, reference)
              << "seed=" << seed << " " << motif.name()
              << " threads=" << threads << " replay=" << replay;
          if (replay) {
            EXPECT_EQ(result.num_replayed_deltas,
                      static_cast<int64_t>(sweep.deltas.size()));
            EXPECT_EQ(result.num_fallback_cells, 0);
          } else {
            EXPECT_EQ(result.num_replayed_deltas, 0);
            EXPECT_EQ(result.num_fallback_cells,
                      static_cast<int64_t>(result.counts.size()));
          }
        }
      }
    }
  }
}

TEST(SweepEquivalenceTest, GridMatchesEnumerateInstanceCounts) {
  const TimeSeriesGraph graph = RandomGraph(33, 6, 100, 60);
  const QueryEngine engine(graph);
  const SweepQuery sweep{{3, 8, 14}, {0.0, 3.0, 6.0}};
  const Motif motif = *MotifCatalog::ByName("M(4,3)");

  QueryOptions sweep_options;
  const SweepResult result = engine.RunSweep(motif, sweep, sweep_options);

  for (size_t d = 0; d < sweep.deltas.size(); ++d) {
    for (size_t p = 0; p < sweep.phis.size(); ++p) {
      QueryOptions point;
      point.mode = QueryMode::kEnumerate;
      point.delta = sweep.deltas[d];
      point.phi = sweep.phis[p];
      EXPECT_EQ(result.count(d, p),
                engine.Run(motif, point).stats.num_instances)
          << "delta=" << sweep.deltas[d] << " phi=" << sweep.phis[p];
    }
  }
}

TEST(SweepEquivalenceTest, ForcedRecordingBypassStillMatches) {
  // max_skeleton_edges has no QueryOptions knob; a bypass is forced the
  // way production hits it — skeleton_replay=false exercises the exact
  // fallback code the budget bypass takes (the replay branch `continue`s
  // into it). This test pins the fallback's cell order and footprint.
  const TimeSeriesGraph graph = testing_util::PaperFig7Graph();
  const QueryEngine engine(graph);
  const SweepQuery sweep{{10, 20}, {2.0, 5.0, 9.0}};
  const Motif motif = *MotifCatalog::ByName("M(3,3)");

  QueryOptions on;
  QueryOptions off;
  off.skeleton_replay = false;
  const SweepResult with_replay = engine.RunSweep(motif, sweep, on);
  const SweepResult without_replay = engine.RunSweep(motif, sweep, off);
  EXPECT_EQ(with_replay.counts, without_replay.counts);
  EXPECT_EQ(without_replay.num_fallback_cells, 6);
  EXPECT_EQ(with_replay.num_structural_matches,
            without_replay.num_structural_matches);
}

TEST(SweepEquivalenceTest, SingleCellGridEqualsOnePointQuery) {
  const TimeSeriesGraph graph = testing_util::PaperFig2Graph();
  const QueryEngine engine(graph);
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  const SweepQuery sweep{{12}, {4.0}};
  QueryOptions options;
  const SweepResult result = engine.RunSweep(motif, sweep, options);
  ASSERT_EQ(result.counts.size(), 1u);
  EXPECT_EQ(result.count(0, 0), PointCount(engine, motif, 12, 4.0, 1));
}

/// A general motif whose interior node 3 is bound last, so consecutive
/// matches often share their (first, last) series.
Motif Kite() {
  return *Motif::FromEdgeList({{0, 1}, {0, 2}, {2, 3}, {1, 2}}, "Kite");
}

/// The catalog, the general shapes of general_motif_test and the kite.
std::vector<Motif> RecordingMotifs() {
  std::vector<Motif> motifs(MotifCatalog::All());
  motifs.push_back(*Motif::FromEdgeList({{0, 1}, {0, 2}}, "FanOut2"));
  motifs.push_back(*Motif::FromEdgeList({{0, 2}, {1, 2}}, "FanIn2"));
  motifs.push_back(
      *Motif::FromEdgeList({{0, 1}, {0, 2}, {1, 3}, {2, 3}}, "Diamond"));
  motifs.push_back(Kite());
  return motifs;
}

MatchList Matches(const TimeSeriesGraph& graph, const Motif& motif) {
  return FindMatchesControlled(StructuralMatcher(graph, motif),
                               /*pool=*/nullptr, /*control=*/nullptr);
}

std::vector<uint32_t> Words(const uint32_t* data, size_t size) {
  return std::vector<uint32_t>(data, data + size);
}

/// Every array a replay or a sweep reads, compared byte for byte.
void ExpectSameRecording(const std::vector<EnumerationSkeleton>& got,
                         const std::vector<EnumerationSkeleton>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t d = 0; d < want.size(); ++d) {
    const EnumerationSkeleton& a = got[d];
    const EnumerationSkeleton& b = want[d];
    const std::string where = label + " delta#" + std::to_string(d);
    ASSERT_EQ(a.recorded(), b.recorded()) << where;
    ASSERT_EQ(a.num_edges(), b.num_edges()) << where;
    ASSERT_EQ(a.num_states(), b.num_states()) << where;
    ASSERT_EQ(a.num_roots(), b.num_roots()) << where;
    EXPECT_EQ(Words(a.edge_lo(), a.num_edges()),
              Words(b.edge_lo(), b.num_edges()))
        << where;
    EXPECT_EQ(Words(a.edge_hi(), a.num_edges()),
              Words(b.edge_hi(), b.num_edges()))
        << where;
    EXPECT_EQ(Words(a.edge_child(), a.num_edges()),
              Words(b.edge_child(), b.num_edges()))
        << where;
    EXPECT_EQ(Words(a.state_begin(), a.num_states() + 1),
              Words(b.state_begin(), b.num_states() + 1))
        << where;
    EXPECT_EQ(Words(a.roots(), a.num_roots()), Words(b.roots(), b.num_roots()))
        << where;
    EXPECT_EQ(a.match_viability(), b.match_viability()) << where;
  }
}

/// Records `deltas` over `matches`, on `pool` when it is not null.
std::vector<EnumerationSkeleton> RecordGrid(
    const TimeSeriesGraph& graph, const Motif& motif,
    const std::vector<Timestamp>& deltas, const MatchList& matches,
    const EnumerationSkeleton::Options& options, QueryControl* control,
    ThreadPool* pool) {
  std::vector<EnumerationSkeleton> skeletons;
  EnumerationSkeleton::RecordSweepDescending(graph, motif, deltas, matches,
                                             options, &skeletons, control,
                                             pool);
  return skeletons;
}

constexpr int kRecordPools[] = {1, 2, 4, 8};

TEST(SweepEquivalenceTest, PooledRecordingEqualsPoolLessRecording) {
  const std::vector<Timestamp> deltas = {30, 18, 18, 9, 4, 0};
  const EnumerationSkeleton::Options options;
  for (const uint64_t seed : {3u, 27u}) {
    const TimeSeriesGraph graph = RandomGraph(seed, 8, 260, 160);
    for (const Motif& motif : RecordingMotifs()) {
      const MatchList matches = Matches(graph, motif);
      ASSERT_GT(matches.size(), 64) << motif.name();
      const std::vector<EnumerationSkeleton> reference =
          RecordGrid(graph, motif, deltas, matches, options, nullptr, nullptr);
      ASSERT_TRUE(reference.front().recorded()) << motif.name();
      // A control that never trips unless the latency smoke arms every
      // site, which then perturbs the ranges' scheduling.
      const std::unique_ptr<QueryControl> control =
          MakeQueryControl(nullptr, QueryDeadline(), WorkBudget());
      for (const int threads : kRecordPools) {
        ThreadPool pool(threads);
        ExpectSameRecording(
            RecordGrid(graph, motif, deltas, matches, options, control.get(),
                       &pool),
            reference,
            "seed=" + std::to_string(seed) + " " + motif.name() +
                " pool=" + std::to_string(threads));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(SweepEquivalenceTest, PooledRecordingAbandonsTheSameDeltaOnBudget) {
  // A budget between the two largest deltas' traces abandons exactly
  // the largest; every other delta records the bytes it records alone.
  const TimeSeriesGraph graph = RandomGraph(11, 8, 260, 160);
  const Motif motif = *MotifCatalog::ByName("M(4,3)");
  const std::vector<Timestamp> deltas = {40, 24, 12, 6};
  const MatchList matches = Matches(graph, motif);
  const std::vector<EnumerationSkeleton> unbounded = RecordGrid(
      graph, motif, deltas, matches, EnumerationSkeleton::Options(), nullptr,
      nullptr);
  std::vector<size_t> sizes;
  for (const EnumerationSkeleton& sk : unbounded) {
    ASSERT_TRUE(sk.recorded());
    sizes.push_back(sk.num_edges());
  }
  std::vector<size_t> sorted = sizes;
  std::sort(sorted.rbegin(), sorted.rend());
  ASSERT_GT(sorted[0], sorted[1]);
  EnumerationSkeleton::Options budget;
  budget.max_edges = sorted[1];

  const std::vector<EnumerationSkeleton> reference =
      RecordGrid(graph, motif, deltas, matches, budget, nullptr, nullptr);
  int abandoned = 0;
  for (size_t d = 0; d < deltas.size(); ++d) {
    if (!reference[d].recorded()) {
      ++abandoned;
      EXPECT_EQ(sizes[d], sorted[0]);
      continue;
    }
    ExpectSameRecording({reference[d]}, {unbounded[d]},
                        "budgeted delta=" + std::to_string(deltas[d]));
  }
  EXPECT_EQ(abandoned, 1);
  for (const int threads : kRecordPools) {
    ThreadPool pool(threads);
    ExpectSameRecording(
        RecordGrid(graph, motif, deltas, matches, budget, nullptr, &pool),
        reference, "pool=" + std::to_string(threads));
  }
}

/// What the recorder charges at "cache.windows": every delta's window
/// list of every match, counted independently here. (The recorder skips
/// the other deltas of a match whose widest list is empty; those lists
/// are empty too, so the sum is the same.)
int64_t OneRangeWindowCharge(const TimeSeriesGraph& graph, const Motif& motif,
                             const std::vector<Timestamp>& deltas,
                             const MatchList& matches) {
  const auto [first_src, first_dst] = motif.edge(0);
  const auto [last_src, last_dst] = motif.edge(motif.num_edges() - 1);
  int64_t total = 0;
  for (int64_t i = 0; i < matches.size(); ++i) {
    const MatchRef binding = matches[i];
    const EdgeSeries* first =
        graph.FindSeries(binding[static_cast<size_t>(first_src)],
                         binding[static_cast<size_t>(first_dst)]);
    const EdgeSeries* last =
        graph.FindSeries(binding[static_cast<size_t>(last_src)],
                         binding[static_cast<size_t>(last_dst)]);
    for (const Timestamp delta : deltas) {
      total += static_cast<int64_t>(
          ComputeProcessedWindows(*first, *last, delta).size());
    }
  }
  return total;
}

/// Whether every skeleton of a recording is recorded (all) or none is.
bool AllRecorded(const std::vector<EnumerationSkeleton>& skeletons) {
  return std::all_of(skeletons.begin(), skeletons.end(),
                     [](const EnumerationSkeleton& sk) {
                       return sk.recorded();
                     });
}
bool NoneRecorded(const std::vector<EnumerationSkeleton>& skeletons) {
  return std::none_of(skeletons.begin(), skeletons.end(),
                      [](const EnumerationSkeleton& sk) {
                        return sk.recorded();
                      });
}

TEST(SweepEquivalenceTest, PooledRecordingStopsExactlyAsOneRange) {
  // Consecutive kite matches share their (first, last) series; each is
  // charged for its lists all the same, in whichever range it falls.
  const TimeSeriesGraph graph = RandomGraph(9, 8, 260, 160);
  const Motif motif = Kite();
  const std::vector<Timestamp> deltas = {30, 12, 5};
  const MatchList matches = Matches(graph, motif);
  const int64_t charge = OneRangeWindowCharge(graph, motif, deltas, matches);
  ASSERT_GT(charge, 0);

  for (const int threads : {1, 4}) {
    const std::string label = "pool=" + std::to_string(threads);
    ThreadPool pool(threads);
    // The window budget: the one-range total records, one less stops.
    WorkBudget exact;
    exact.max_window_elements = charge;
    QueryControl fits(nullptr, QueryDeadline(), exact);
    EXPECT_TRUE(AllRecorded(RecordGrid(graph, motif, deltas, matches,
                                       EnumerationSkeleton::Options(), &fits,
                                       &pool)))
        << label;
    EXPECT_TRUE(fits.Finish().complete()) << label;

    WorkBudget short_by_one;
    short_by_one.max_window_elements = charge - 1;
    QueryControl over(nullptr, QueryDeadline(), short_by_one);
    EXPECT_TRUE(NoneRecorded(RecordGrid(graph, motif, deltas, matches,
                                        EnumerationSkeleton::Options(), &over,
                                        &pool)))
        << label;
    const Termination stopped = over.Finish();
    EXPECT_EQ(stopped.code, TerminationCode::kBudgetExceeded) << label;
    EXPECT_EQ(stopped.stopped_at, failpoint::kCacheWindows) << label;

    // A cancel at "sweep.record": armed to fire on the last match's
    // check it abandons every delta; armed one hit later it never fires.
    if (!failpoint::kFailpointsCompiledIn) continue;
    for (const int64_t hits : {matches.size() / 2, matches.size() - 1,
                               matches.size()}) {
      failpoint::Config cancel;
      cancel.action = failpoint::Action::kCancel;
      cancel.hits_before_trigger = hits;
      failpoint::Arm(failpoint::kSweepRecord, cancel);
      QueryControl control(nullptr, QueryDeadline(), WorkBudget());
      const std::vector<EnumerationSkeleton> skeletons =
          RecordGrid(graph, motif, deltas, matches,
                     EnumerationSkeleton::Options(), &control, &pool);
      failpoint::Disarm(failpoint::kSweepRecord);
      const std::string where = label + " hits=" + std::to_string(hits);
      if (hits < matches.size()) {
        EXPECT_TRUE(NoneRecorded(skeletons)) << where;
        EXPECT_EQ(control.Finish().code, TerminationCode::kCancelled)
            << where;
      } else {
        EXPECT_TRUE(AllRecorded(skeletons)) << where;
        EXPECT_TRUE(control.Finish().complete()) << where;
      }
    }
  }
}

}  // namespace
}  // namespace flowmotif
