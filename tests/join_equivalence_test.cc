// Cross-checks the rewritten join baseline (core/join_baseline.cc:
// cursor-built quintuple tables, binary-searched canonical-start
// groups, WindowReader anchor novelty) against the two-phase engine,
// so the Fig. 8 "join vs two-phase" comparisons stay apples-to-apples:
// both sides must produce the identical instance set, hence identical
// counts (kCount) and identical top-k flows (kTopK), on a corpus of
// seeded random graphs, for every engine thread count.
#include "core/join_baseline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/motif_catalog.h"
#include "engine/query_engine.h"
#include "test_util.h"
#include "util/random.h"

namespace flowmotif {
namespace {

using testing_util::PaperFig2Graph;

/// Random small graph, the same recipe as the other equivalence
/// corpora.
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

/// The join baseline is defined for spanning-path motifs (Sec. 6.2.1).
std::vector<Motif> PathTestMotifs() {
  return {*MotifCatalog::ByName("M(3,2)"), *MotifCatalog::ByName("M(3,3)"),
          *MotifCatalog::ByName("M(4,3)"), *MotifCatalog::ByName("M(5,4)")};
}

/// All instance flows the join baseline materializes, descending.
std::vector<Flow> JoinInstanceFlowsDescending(const TimeSeriesGraph& graph,
                                              const Motif& motif,
                                              Timestamp delta, Flow phi) {
  const JoinMotifEnumerator join(graph, motif, delta, phi);
  std::vector<Flow> flows;
  join.Run([&flows](const MotifInstance& instance) {
    flows.push_back(instance.InstanceFlow());
    return true;
  });
  std::sort(flows.begin(), flows.end(), std::greater<Flow>());
  return flows;
}

TEST(JoinEquivalenceTest, CountMatchesEngineOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (const Timestamp delta : {Timestamp{4}, Timestamp{12},
                                  Timestamp{0}}) {
      const TimeSeriesGraph graph =
          RandomGraph(seed * 7919u + static_cast<uint64_t>(delta),
                      4 + static_cast<int>(seed % 3),
                      40 + static_cast<int>(seed * 5 % 40),
                      /*time_span=*/50);
      const Flow phi = seed % 2 == 0 ? 0.0 : 5.0;
      for (const Motif& motif : PathTestMotifs()) {
        const JoinMotifEnumerator join(graph, motif, delta, phi);
        const JoinMotifEnumerator::Result join_result = join.Run();

        QueryEngine engine(graph);
        QueryOptions options;
        options.mode = QueryMode::kCount;
        options.delta = delta;
        options.phi = phi;
        for (int threads : {1, 2, 4, 8}) {
          options.num_threads = threads;
          const QueryResult counted = engine.Run(motif, options);
          ASSERT_EQ(join_result.num_instances, counted.stats.num_instances)
              << "seed=" << seed << " delta=" << delta << " phi=" << phi
              << " motif=" << motif.name() << " threads=" << threads;
          if (testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(JoinEquivalenceTest, TopKFlowsMatchEngineOnRandomGraphs) {
  // The engine's kTopK entries are sorted by decreasing flow; the k
  // best join-instance flows must be the same multiset (both sides
  // compute flows as identical prefix-sum subtractions, so exact
  // double comparison is correct).
  constexpr int64_t kK = 5;
  for (uint64_t seed : {3u, 8u, 15u, 27u}) {
    const TimeSeriesGraph graph = RandomGraph(seed, 5, 60, 40);
    for (const Timestamp delta : {Timestamp{6}, Timestamp{15}}) {
      for (const Motif& motif : PathTestMotifs()) {
        const std::vector<Flow> join_flows =
            JoinInstanceFlowsDescending(graph, motif, delta, /*phi=*/0.0);

        QueryEngine engine(graph);
        QueryOptions options;
        options.mode = QueryMode::kTopK;
        options.delta = delta;
        options.k = kK;
        for (int threads : {1, 4}) {
          options.num_threads = threads;
          const QueryResult result = engine.Run(motif, options);
          const std::string label = "seed=" + std::to_string(seed) +
                                    " delta=" + std::to_string(delta) +
                                    " motif=" + motif.name() +
                                    " threads=" + std::to_string(threads);
          const size_t expect_n = std::min<size_t>(
              static_cast<size_t>(kK), join_flows.size());
          ASSERT_EQ(result.topk.size(), expect_n) << label;
          for (size_t i = 0; i < expect_n; ++i) {
            ASSERT_EQ(result.topk[i].flow, join_flows[i])
                << label << " entry=" << i;
          }
          if (testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(JoinEquivalenceTest, PaperGraphAgreesWithEngine) {
  // The running example of the paper (Fig. 2): triangle motif over the
  // bitcoin user graph, a fixed point the suite can eyeball.
  const TimeSeriesGraph graph = PaperFig2Graph();
  const Motif motif = *MotifCatalog::ByName("M(3,3)");
  for (const Timestamp delta : {Timestamp{5}, Timestamp{10}, Timestamp{20}}) {
    const JoinMotifEnumerator join(graph, motif, delta, 0.0);
    QueryEngine engine(graph);
    QueryOptions options;
    options.mode = QueryMode::kCount;
    options.delta = delta;
    const QueryResult counted = engine.Run(motif, options);
    EXPECT_EQ(join.Run().num_instances, counted.stats.num_instances)
        << "delta=" << delta;
  }
}

}  // namespace
}  // namespace flowmotif
