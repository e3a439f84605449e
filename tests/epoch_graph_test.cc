// Epoch-layer invariants of the append-friendly storage: ExtendWith /
// EpochLog seals produce graphs byte-identical to batch builds while
// sharing untouched storage by identity; time slices cut exactly at
// epoch segment boundaries; graph_io round-trips an epoched graph so a
// reloaded log can re-seal and continue the stream; seeded append/seal
// sequences hold the log to a reference; and the resumable window
// scan equals the batch scan across any settle schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/sliding_window.h"
#include "graph/epoch_log.h"
#include "graph/graph_io.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "graph/time_slice.h"
#include "test_util.h"

namespace flowmotif {
namespace {

using testing_util::MakeGraph;

/// Address of a series' flow storage; its flows and prefix sums live
/// in one block, so one address identifies both.
const double* FlowStorage(const EdgeSeries& series) {
  return &series.prefix_sums()[0];
}

void ExpectSameGraph(const TimeSeriesGraph& a, const TimeSeriesGraph& b,
                     const std::string& label) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << label;
  ASSERT_EQ(a.num_pairs(), b.num_pairs()) << label;
  for (int64_t p = 0; p < a.num_pairs(); ++p) {
    ASSERT_EQ(a.pair(p).src, b.pair(p).src) << label;
    ASSERT_EQ(a.pair(p).dst, b.pair(p).dst) << label;
    ASSERT_EQ(a.pair(p).series.size(), b.pair(p).series.size())
        << label << " pair " << p;
    for (size_t i = 0; i < a.pair(p).series.size(); ++i) {
      ASSERT_EQ(a.pair(p).series.time(i), b.pair(p).series.time(i)) << label;
      ASSERT_EQ(a.pair(p).series.flow(i), b.pair(p).series.flow(i)) << label;
    }
  }
}

TEST(EpochGraphTest, ExtendWithEqualsBatchBuildAndSharesUntouchedStorage) {
  const TimeSeriesGraph base = MakeGraph({
      {0, 1, 5, 2.0}, {0, 1, 9, 1.0}, {1, 2, 7, 3.0}, {2, 0, 8, 4.0},
  });
  // Appends touch (0,1), add the new pair (2,3), and grow the universe.
  std::vector<InteractionGraph::Edge> tail = {
      {0, 1, 10, 5.0}, {2, 3, 11, 1.0}, {0, 1, 11, 2.0},
  };
  const TimeSeriesGraph extended = TimeSeriesGraph::ExtendWith(
      base, tail, /*num_vertices=*/4, /*epoch=*/1);

  const TimeSeriesGraph batch = MakeGraph({
      {0, 1, 5, 2.0}, {0, 1, 9, 1.0}, {1, 2, 7, 3.0}, {2, 0, 8, 4.0},
      {0, 1, 10, 5.0}, {2, 3, 11, 1.0}, {0, 1, 11, 2.0},
  });
  ExpectSameGraph(extended, batch, "extend vs batch");

  // Untouched series share timestamp storage with the base by identity;
  // dirty series get fresh storage stamped with the new epoch.
  const EdgeSeries* base_12 = base.FindSeries(1, 2);
  const EdgeSeries* ext_12 = extended.FindSeries(1, 2);
  ASSERT_EQ(base_12->timestamp_identity(), ext_12->timestamp_identity());
  const EdgeSeries* base_01 = base.FindSeries(0, 1);
  const EdgeSeries* ext_01 = extended.FindSeries(0, 1);
  ASSERT_NE(base_01->timestamp_identity(), ext_01->timestamp_identity());
  ASSERT_EQ(ext_01->timestamp_identity().epoch, 1u);
  // The seal copies an untouched series by pointer: its flows and prefix
  // sums are the base's storage, not a copy of it. The dirty series and
  // the new pair get storage no base series holds.
  EXPECT_EQ(FlowStorage(*ext_12), FlowStorage(*base_12));
  const EdgeSeries* ext_23 = extended.FindSeries(2, 3);
  ASSERT_NE(ext_23, nullptr);
  for (const TimeSeriesGraph::PairEdge& pair : base.pairs()) {
    EXPECT_NE(FlowStorage(*ext_01), FlowStorage(pair.series));
    EXPECT_NE(FlowStorage(*ext_23), FlowStorage(pair.series));
  }
  // The new pair forced a topology rebuild under the new epoch.
  ASSERT_NE(extended.topology_identity(), base.topology_identity());
  ASSERT_EQ(extended.topology_identity().epoch, 1u);

  // Flow-only appends (no new pair, no new vertex) keep the topology
  // identity: caches keyed on it stay warm.
  const TimeSeriesGraph flow_only = TimeSeriesGraph::ExtendWith(
      base, {{0, 1, 12, 1.0}}, base.num_vertices(), /*epoch=*/1);
  ASSERT_EQ(flow_only.topology_identity(), base.topology_identity());
  EXPECT_EQ(FlowStorage(*flow_only.FindSeries(1, 2)), FlowStorage(*base_12));
}

TEST(EpochGraphTest, SealedEpochsMatchBatchPrefixBuilds) {
  InteractionGraph seed;
  ASSERT_TRUE(seed.AddEdge(0, 1, 1, 2.0).ok());
  ASSERT_TRUE(seed.AddEdge(1, 2, 3, 1.0).ok());
  EpochLog log(seed);
  std::vector<InteractionGraph::Edge> all = {
      {0, 1, 1, 2.0}, {1, 2, 3, 1.0},
  };

  const std::vector<std::vector<InteractionGraph::Edge>> epochs = {
      {{2, 0, 4, 5.0}, {0, 1, 4, 1.0}},   // dirty + new pair, same time
      {{1, 2, 6, 2.0}},                   // dirty only
      {{3, 0, 9, 4.0}, {0, 3, 9, 4.0}},   // new vertex
  };
  for (size_t e = 0; e < epochs.size(); ++e) {
    for (const InteractionGraph::Edge& edge : epochs[e]) {
      log.Append(edge);
      all.push_back(edge);
    }
    const EpochLog::SealInfo info = log.SealEpoch();
    ASSERT_EQ(info.epoch, e + 1);
    ASSERT_EQ(info.num_appended, epochs[e].size());
    InteractionGraph prefix;
    for (const InteractionGraph::Edge& edge : all) {
      ASSERT_TRUE(prefix.AddEdge(edge.src, edge.dst, edge.t, edge.f).ok());
    }
    ExpectSameGraph(*info.graph, TimeSeriesGraph::Build(prefix),
                    "epoch " + std::to_string(e + 1));
  }

  // Empty tail: sealing is a no-op that republishes the same snapshot.
  const std::shared_ptr<const TimeSeriesGraph> before = log.Snapshot();
  const EpochLog::SealInfo noop = log.SealEpoch();
  ASSERT_EQ(noop.num_appended, 0u);
  ASSERT_EQ(noop.epoch, log.epoch());
  ASSERT_EQ(log.Snapshot().get(), before.get());

  // Ingest is an untrusted boundary: a non-monotone timestamp, a
  // negative vertex id, or a flow that is not positive and finite is
  // rejected with InvalidArgument, the tail and the watermark stay
  // unchanged, and later well-formed appends (and seals) still succeed.
  const Timestamp watermark_before = log.watermark();
  EXPECT_EQ(log.Append(0, 1, 0, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append(-1, 1, 20, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append(0, -2, 20, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append(0, 1, 20, 0.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append(0, 1, 20, -1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append(0, 1, 20, std::numeric_limits<Flow>::infinity()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(log.tail_size(), 0u);
  EXPECT_EQ(log.watermark(), watermark_before);
  ASSERT_TRUE(log.Append(0, 1, 20, 1.0).ok());
  const EpochLog::SealInfo after = log.SealEpoch();
  EXPECT_EQ(after.num_appended, 1u);
  EXPECT_EQ(after.watermark, 20);
}

TEST(EpochGraphTest, TimeSlicesCutExactlyAtEpochBoundaries) {
  // Seal epochs at times 5, 10, 15; slicing the final snapshot at each
  // epoch's watermark must reproduce that epoch's snapshot exactly
  // (including a slice inside a series whose storage the later epochs
  // replaced).
  EpochLog log;
  std::vector<std::shared_ptr<const TimeSeriesGraph>> snapshots;
  std::vector<Timestamp> watermarks;
  const std::vector<std::vector<InteractionGraph::Edge>> epochs = {
      {{0, 1, 2, 1.0}, {1, 2, 5, 2.0}},
      {{0, 1, 7, 3.0}, {2, 0, 10, 1.0}},
      {{1, 2, 12, 2.0}, {0, 1, 15, 4.0}},
  };
  for (const std::vector<InteractionGraph::Edge>& epoch : epochs) {
    for (const InteractionGraph::Edge& edge : epoch) log.Append(edge);
    const EpochLog::SealInfo info = log.SealEpoch();
    snapshots.push_back(info.graph);
    watermarks.push_back(info.watermark);
  }
  const TimeSeriesGraph& final_graph = *snapshots.back();
  for (size_t e = 0; e < snapshots.size(); ++e) {
    const TimeSeriesGraph slice = SliceByMaxTime(final_graph, watermarks[e]);
    // Vertex universes may differ (slices keep all vertices; earlier
    // epochs had fewer), so compare the pair/series content only.
    ASSERT_EQ(slice.num_pairs(), snapshots[e]->num_pairs()) << e;
    for (int64_t p = 0; p < slice.num_pairs(); ++p) {
      const EdgeSeries& a = slice.pair(p).series;
      const EdgeSeries& b = snapshots[e]->pair(p).series;
      ASSERT_EQ(a.size(), b.size()) << "epoch " << e << " pair " << p;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.time(i), b.time(i));
        ASSERT_EQ(a.flow(i), b.flow(i));
      }
    }
  }
}

TEST(EpochGraphTest, SaveReloadAndResealContinuesTheStream) {
  // An epoched graph written with graph_io, reloaded into a fresh log,
  // and re-sealed with more appends must equal the batch build of the
  // whole edge set — the crash-recovery path of a streaming deployment.
  EpochLog log;
  log.Append(0, 1, 3, 2.0);
  log.Append(1, 2, 5, 1.0);
  log.SealEpoch();
  log.Append(2, 0, 8, 4.0);
  const EpochLog::SealInfo sealed = log.SealEpoch();

  const std::string path = ::testing::TempDir() + "/epoched_graph.txt";
  ASSERT_TRUE(SaveTimeSeriesGraph(*sealed.graph, path).ok());
  StatusOr<InteractionGraph> reloaded = LoadInteractionGraph(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  std::remove(path.c_str());

  ExpectSameGraph(TimeSeriesGraph::Build(*reloaded), *sealed.graph,
                  "reload");

  EpochLog resumed(*reloaded);
  ASSERT_EQ(resumed.watermark(), sealed.watermark);
  resumed.Append(0, 1, 9, 5.0);
  resumed.Append(3, 1, 11, 1.0);
  const EpochLog::SealInfo resealed = resumed.SealEpoch();
  const TimeSeriesGraph batch = MakeGraph({
      {0, 1, 3, 2.0}, {1, 2, 5, 1.0}, {2, 0, 8, 4.0},
      {0, 1, 9, 5.0}, {3, 1, 11, 1.0},
  });
  ExpectSameGraph(*resealed.graph, batch, "reseal");
}

TEST(EpochGraphTest, SeededAppendSealSequencesKeepTheLogInvariants) {
  // Seeded operation sequences over the ingest boundary: valid appends
  // (times at the watermark and new vertices included), malformed
  // appends, and seals (empty-tail seals included), checked against a
  // plain vector of the accepted edges after every operation.
  constexpr Flow kInf = std::numeric_limits<Flow>::infinity();
  const std::vector<Flow> bad_flows = {
      0.0, -1.0, std::numeric_limits<Flow>::quiet_NaN(), kInf, -kInf};
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 rng(seed);
    EpochLog log;
    std::vector<InteractionGraph::Edge> accepted;
    std::vector<InteractionGraph::Edge> tail;  // accepted since the seal
    Timestamp sealed_watermark = std::numeric_limits<Timestamp>::min();
    int real_seals = 0;
    for (int op = 0; op < 2000; ++op) {
      const std::string where =
          "seed " + std::to_string(seed) + " op " + std::to_string(op);
      const uint64_t kind = rng() % 10;
      if (kind == 0 || op == 1999) {
        const std::shared_ptr<const TimeSeriesGraph> before = log.Snapshot();
        const EpochId epoch_before = log.epoch();
        const EpochLog::SealInfo info = log.SealEpoch();
        if (tail.empty()) {
          ASSERT_EQ(info.num_appended, 0u) << where;
          ASSERT_EQ(info.epoch, epoch_before) << where;
          ASSERT_EQ(log.epoch(), epoch_before) << where;
          ASSERT_EQ(info.graph.get(), before.get()) << where;
          ASSERT_EQ(log.Snapshot().get(), before.get()) << where;
          continue;
        }
        ++real_seals;
        ASSERT_EQ(info.epoch, epoch_before + 1) << where;
        ASSERT_EQ(log.Snapshot().get(), info.graph.get()) << where;
        ASSERT_EQ(info.num_appended, tail.size()) << where;
        InteractionGraph multigraph;
        for (const InteractionGraph::Edge& e : accepted) {
          ASSERT_TRUE(multigraph.AddEdge(e.src, e.dst, e.t, e.f).ok());
        }
        ExpectSameGraph(*info.graph, TimeSeriesGraph::Build(multigraph),
                        where);

        std::vector<std::pair<VertexId, VertexId>> dirty;
        for (const InteractionGraph::Edge& e : tail) {
          dirty.emplace_back(e.src, e.dst);
        }
        std::sort(dirty.begin(), dirty.end());
        dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
        ASSERT_EQ(info.dirty_pairs, dirty) << where;
        std::vector<std::pair<VertexId, VertexId>> fresh;
        for (const auto& [src, dst] : dirty) {
          if (before->FindPairIndex(src, dst) < 0) fresh.emplace_back(src, dst);
        }
        ASSERT_EQ(info.new_pairs, fresh) << where;
        ASSERT_EQ(info.topology_changed,
                  !fresh.empty() ||
                      info.graph->num_vertices() != before->num_vertices())
            << where;
        ASSERT_EQ(info.min_new_time, tail.front().t) << where;
        ASSERT_EQ(info.watermark, accepted.back().t) << where;

        // Untouched pairs keep their storage. Every element below the
        // previous seal's watermark keeps its index, time and flow;
        // elements at that watermark may reorder, since equal times sort
        // by flow. This is what a resumed WindowScan relies on.
        for (const TimeSeriesGraph::PairEdge& old_pair : before->pairs()) {
          const EdgeSeries& old_series = old_pair.series;
          const EdgeSeries* new_series =
              info.graph->FindSeries(old_pair.src, old_pair.dst);
          ASSERT_NE(new_series, nullptr) << where;
          if (!std::binary_search(dirty.begin(), dirty.end(),
                                  std::make_pair(old_pair.src,
                                                 old_pair.dst))) {
            ASSERT_EQ(new_series->timestamp_identity(),
                      old_series.timestamp_identity())
                << where;
          }
          for (size_t i = 0; i < old_series.size() &&
                             old_series.time(i) < sealed_watermark;
               ++i) {
            ASSERT_EQ(new_series->time(i), old_series.time(i)) << where;
            ASSERT_EQ(new_series->flow(i), old_series.flow(i)) << where;
          }
        }
        sealed_watermark = info.watermark;
        tail.clear();
        continue;
      }

      const size_t tail_before = log.tail_size();
      const Timestamp watermark_before = log.watermark();
      const int64_t vertices_before = log.num_vertices();
      const EpochId epoch_before = log.epoch();
      // Ids reach one past the current universe, so vertices grow.
      const auto vertex = [&] {
        return static_cast<VertexId>(rng() % (vertices_before + 2));
      };
      VertexId src = vertex();
      VertexId dst = vertex();
      Timestamp t = accepted.empty()
                        ? 1000
                        : watermark_before + static_cast<Timestamp>(rng() % 3);
      Flow f = 0.5 * static_cast<Flow>(1 + rng() % 6);
      const bool malformed = kind <= 2;
      if (malformed) {
        switch (rng() % 4) {
          case 0:
            (rng() % 2 == 0 ? src : dst) =
                -1 - static_cast<VertexId>(rng() % 3);
            break;
          case 1:
          case 2:
            f = bad_flows[rng() % bad_flows.size()];
            break;
          default:
            if (accepted.empty()) {
              src = -1;
            } else {
              t = watermark_before - 1 - static_cast<Timestamp>(rng() % 5);
            }
        }
      }
      const Status status = log.Append(src, dst, t, f);
      if (malformed) {
        ASSERT_EQ(status.code(), StatusCode::kInvalidArgument) << where;
        ASSERT_EQ(log.tail_size(), tail_before) << where;
        ASSERT_EQ(log.watermark(), watermark_before) << where;
        ASSERT_EQ(log.num_vertices(), vertices_before) << where;
        ASSERT_EQ(log.epoch(), epoch_before) << where;
        continue;
      }
      ASSERT_TRUE(status.ok()) << where << " " << status.ToString();
      accepted.push_back(InteractionGraph::Edge{src, dst, t, f});
      tail.push_back(accepted.back());
      ASSERT_EQ(log.tail_size(), tail.size()) << where;
      ASSERT_EQ(log.watermark(), t) << where;
    }
    EXPECT_GT(real_seals, 100) << "seed " << seed;
  }
}

TEST(EpochGraphTest, WindowScanEqualsBatchScanOnAnySchedule) {
  // Random series pairs and random settle schedules, split as the
  // streaming monitor splits them: advance the scan to the watermark
  // (settled), then run a copy to the end (hot). At every step the
  // settled output so far plus the hot list must equal the batch scan of
  // the visible series. A third of the trials sit at the top of the time
  // axis, where window ends saturate; timestamps repeat, and either
  // series may be empty.
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  std::mt19937_64 rng(7);
  int saturated = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const bool near_max = trial % 3 == 2;
    const Timestamp origin = near_max ? kMax - 24 : 0;
    // Build a full edge timeline, then reveal prefixes in random steps.
    Timestamp latest = origin;
    const auto timeline = [&] {
      std::vector<Interaction> all;
      Timestamp t = origin;
      for (size_t i = 0, n = rng() % 13; i < n; ++i) {
        t += static_cast<Timestamp>(rng() % 3);
        all.push_back({t, 1.0});
      }
      latest = std::max(latest, t);
      return all;
    };
    const std::vector<Interaction> first_all = timeline();
    const std::vector<Interaction> last_all = timeline();
    const Timestamp delta = static_cast<Timestamp>(rng() % (near_max ? 40 : 6));
    const auto visible = [](const std::vector<Interaction>& all,
                            Timestamp w) {
      std::vector<Interaction> shown;
      for (const Interaction& x : all) {
        if (x.t < w) shown.push_back(x);
      }
      return EdgeSeries(shown);
    };

    // Watermark steps: reveal every element with time < w, settle
    // windows with end < w — the exact seal semantics.
    std::vector<Timestamp> watermarks;
    const Timestamp horizon = WindowEndSaturating(latest, delta + 2);
    for (Timestamp w = origin + 1; w <= horizon && w <= kMax - 3;
         w += 1 + static_cast<Timestamp>(rng() % 3)) {
      watermarks.push_back(w);
    }
    watermarks.push_back(kMax);

    WindowScan scan;
    std::vector<Window> settled;
    std::vector<Window> hot;
    for (const Timestamp w : watermarks) {
      const EdgeSeries first = visible(first_all, w);
      const EdgeSeries last = visible(last_all, w);
      scan.AdvanceBefore(first, last, delta, w, &settled);
      hot.clear();
      WindowScan(scan).AdvanceToEnd(first, last, delta, &hot);

      std::vector<Window> incremental = settled;
      incremental.insert(incremental.end(), hot.begin(), hot.end());
      ASSERT_EQ(incremental, ComputeProcessedWindows(first, last, delta))
          << "trial " << trial << " watermark " << w;
    }
    // Terminal watermark: nothing is hot but a window that ends at the
    // top of the time axis, which no watermark can pass.
    for (const Window& window : hot) {
      ASSERT_EQ(window.end, kMax) << "trial " << trial;
      ++saturated;
    }
    if (!near_max) {
      ASSERT_TRUE(hot.empty()) << "trial " << trial;
    }

    // The stream ends: elements at the top of the axis arrive, and the
    // scan itself runs to the end.
    const EdgeSeries first(first_all);
    const EdgeSeries last(last_all);
    scan.AdvanceToEnd(first, last, delta, &settled);
    ASSERT_EQ(settled, ComputeProcessedWindows(first, last, delta))
        << "trial " << trial;
  }
  EXPECT_GT(saturated, 0);
}

}  // namespace
}  // namespace flowmotif
