// Tests for the Sec. 7 generalization: motifs whose label-ordered edges
// form forks and joins instead of a spanning path. Temporal semantics:
// interactions of edge i strictly precede interactions of edge i+1.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/counter.h"
#include "core/enumerator.h"
#include "core/instance.h"
#include "core/match_list.h"
#include "core/motif.h"
#include "core/structural_match.h"
#include "gen/presets.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace flowmotif {
namespace {

using testing_util::MakeGraph;

Motif FanOut2() {
  return *Motif::FromEdgeList({{0, 1}, {0, 2}}, "FanOut2");
}
Motif FanIn2() {
  return *Motif::FromEdgeList({{0, 2}, {1, 2}}, "FanIn2");
}
Motif Diamond() {
  return *Motif::FromEdgeList({{0, 1}, {0, 2}, {1, 3}, {2, 3}}, "Diamond");
}

TEST(GeneralMotifTest, FromEdgeListBasics) {
  Motif fan = FanOut2();
  EXPECT_EQ(fan.num_nodes(), 3);
  EXPECT_EQ(fan.num_edges(), 2);
  EXPECT_FALSE(fan.is_path());
  EXPECT_FALSE(fan.HasCycle());
  EXPECT_EQ(fan.PathString(), "0>1,0>2");
}

TEST(GeneralMotifTest, EdgeListThatChainsIsAPath) {
  StatusOr<Motif> m = Motif::FromEdgeList({{0, 1}, {1, 2}, {2, 0}});
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->is_path());
  EXPECT_EQ(m->PathString(), "0-1-2-0");
  EXPECT_EQ(*m, *Motif::FromSpanningPath({0, 1, 2, 0}));
}

TEST(GeneralMotifTest, ValidationRejectsBadShapes) {
  EXPECT_FALSE(Motif::FromEdgeList({}).ok());
  EXPECT_FALSE(Motif::FromEdgeList({{0, 0}}).ok());            // self loop
  EXPECT_FALSE(Motif::FromEdgeList({{0, 1}, {0, 1}}).ok());    // repeat
  EXPECT_FALSE(Motif::FromEdgeList({{0, 1}, {2, 3}}).ok());    // disconnected
  EXPECT_FALSE(Motif::FromEdgeList({{0, 2}}).ok());            // sparse ids
}

TEST(GeneralMotifTest, ParseEdgeListNotation) {
  StatusOr<Motif> m = Motif::Parse("0>1,0>2");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(*m, FanOut2());
  EXPECT_FALSE(Motif::Parse("0>").ok());
  EXPECT_FALSE(Motif::Parse(">1").ok());
  EXPECT_FALSE(Motif::Parse("0>x").ok());
}

TEST(GeneralMotifTest, HasCycleOnGeneralShapes) {
  EXPECT_FALSE(Diamond().HasCycle());
  StatusOr<Motif> looped =
      Motif::FromEdgeList({{0, 1}, {1, 2}, {2, 0}, {0, 3}});
  ASSERT_TRUE(looped.ok());
  EXPECT_TRUE(looped->HasCycle());
}

TEST(GeneralMotifMatchTest, LabelOrderBindingFreshWeakComponent) {
  // Edge 2>3 is reached while motif nodes 2 and 3 are both unbound: the
  // label order visits a new weak component before edge 1>2 links it,
  // which exerces GeneralDfs's pair-table scan branch mid-search (not
  // just at the first edge).
  StatusOr<Motif> fresh = Motif::FromEdgeList({{0, 1}, {2, 3}, {1, 2}},
                                              "FreshComponent");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ASSERT_FALSE(fresh->is_path());

  TimeSeriesGraph g = MakeGraph({{0, 1, 1, 1.0},
                                 {1, 2, 2, 1.0},
                                 {2, 3, 3, 1.0},
                                 {0, 3, 4, 1.0}});
  StructuralMatcher matcher(g, *fresh);
  std::vector<MatchBinding> matches = matcher.FindAllMatches();
  // The only injective binding with all three pair edges present is the
  // identity: 0->1 (edge 1), 2->3 (edge 2), 1->2 (edge 3).
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], (MatchBinding{0, 1, 2, 3}));
  EXPECT_TRUE(matcher.IsMatch(matches[0]));
  EXPECT_EQ(matcher.CountMatches(), 1);

  // The per-first-edge work-unit decomposition must reproduce the same
  // list for the mid-search fresh-component branch too, through the one
  // flat P1 scan at every pool size.
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    const MatchList flat = FindMatchesControlled(matcher, &pool, nullptr);
    ASSERT_EQ(flat.size(), static_cast<int64_t>(matches.size()))
        << "threads=" << threads;
    for (int64_t i = 0; i < flat.size(); ++i) {
      EXPECT_EQ(flat[i].ToBinding(), matches[static_cast<size_t>(i)])
          << "threads=" << threads << " match " << i;
    }
  }
}

TEST(GeneralMotifMatchTest, PooledFlatScanEqualsSerialOnGeneralShapes) {
  // Per-first-edge work units over a graph with many matches: the one
  // flat P1 scan equals FindAllMatches() at every pool size.
  const TimeSeriesGraph g =
      GenerateDataset(GetPreset(DatasetKind::kBitcoin), 0.02);
  for (const Motif& motif : {FanOut2(), FanIn2(), Diamond()}) {
    const StructuralMatcher matcher(g, motif);
    const std::vector<MatchBinding> matches = matcher.FindAllMatches();
    ASSERT_GT(matches.size(), 16u) << motif.name();
    for (int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      const MatchList flat = FindMatchesControlled(matcher, &pool, nullptr);
      ASSERT_EQ(flat.size(), static_cast<int64_t>(matches.size()))
          << motif.name() << " threads=" << threads;
      for (int64_t i = 0; i < flat.size(); ++i) {
        ASSERT_EQ(flat[i].ToBinding(), matches[static_cast<size_t>(i)])
            << motif.name() << " threads=" << threads << " match " << i;
      }
    }
  }
}

TEST(GeneralMotifMatchTest, FreshComponentScanSkipsBoundVertices) {
  // Two candidate pairs for the fresh edge 2>3; the one overlapping the
  // already-bound vertices must be rejected by the injectivity scan.
  StatusOr<Motif> fresh = Motif::FromEdgeList({{0, 1}, {2, 3}, {1, 2}},
                                              "FreshComponent");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  TimeSeriesGraph g = MakeGraph({{0, 1, 1, 1.0},
                                 {1, 0, 2, 1.0},   // overlaps bound 0,1
                                 {1, 2, 2, 1.0},
                                 {2, 3, 3, 1.0},
                                 {3, 1, 4, 1.0}});
  StructuralMatcher matcher(g, *fresh);
  for (const MatchBinding& m : matcher.FindAllMatches()) {
    std::set<VertexId> distinct(m.begin(), m.end());
    EXPECT_EQ(distinct.size(), m.size()) << "non-injective binding";
    EXPECT_TRUE(matcher.IsMatch(m));
  }
}

TEST(GeneralMotifMatchTest, FanOutBindsTargetsInjectively) {
  // 0 -> {1, 2, 3}: fan-out matches choose ordered pairs of distinct
  // targets: 3 * 2 = 6.
  TimeSeriesGraph g = MakeGraph({{0, 1, 1, 1.0},
                                 {0, 2, 2, 1.0},
                                 {0, 3, 3, 1.0}});
  StructuralMatcher matcher(g, FanOut2());
  std::vector<MatchBinding> matches = matcher.FindAllMatches();
  EXPECT_EQ(matches.size(), 6u);
  for (const MatchBinding& m : matches) {
    EXPECT_EQ(m[0], 0);
    EXPECT_NE(m[1], m[2]);
  }
}

TEST(GeneralMotifMatchTest, FanInUsesReverseAdjacency) {
  // {0, 1, 2} -> 3: fan-in matches: 3 * 2 = 6.
  TimeSeriesGraph g = MakeGraph({{0, 3, 1, 1.0},
                                 {1, 3, 2, 1.0},
                                 {2, 3, 3, 1.0}});
  StructuralMatcher matcher(g, FanIn2());
  std::vector<MatchBinding> matches = matcher.FindAllMatches();
  EXPECT_EQ(matches.size(), 6u);
  for (const MatchBinding& m : matches) {
    EXPECT_EQ(m[2], 3);
    EXPECT_NE(m[0], m[1]);
  }
}

TEST(GeneralMotifMatchTest, DiamondMatch) {
  TimeSeriesGraph g = MakeGraph({{0, 1, 1, 1.0},
                                 {0, 2, 2, 1.0},
                                 {1, 3, 3, 1.0},
                                 {2, 3, 4, 1.0}});
  StructuralMatcher matcher(g, Diamond());
  std::vector<MatchBinding> matches = matcher.FindAllMatches();
  // Two matches: (1,2) and (2,1) as the middle layer... but edge labels
  // fix which middle node is hit first: (0,1,2,3) needs 0->1,0->2,1->3,
  // 2->3 (all present) and (0,2,1,3) needs 0->2,0->1,2->3,1->3 (also all
  // present) -> 2 matches.
  EXPECT_EQ(matches.size(), 2u);
}

TEST(GeneralMotifMatchTest, PathAsEdgeListAgreesWithPathMatcher) {
  TimeSeriesGraph g = testing_util::PaperFig2Graph();
  Motif path_motif = *Motif::FromSpanningPath({0, 1, 2, 0});
  Motif general = *Motif::FromEdgeList({{0, 1}, {1, 2}, {2, 0}});
  std::vector<MatchBinding> a =
      StructuralMatcher(g, path_motif).FindAllMatches();
  std::vector<MatchBinding> b =
      StructuralMatcher(g, general).FindAllMatches();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(GeneralMotifEnumerationTest, FanOutInstancesRespectLabelOrder) {
  // 0->1 at t=10 and t=30; 0->2 at t=20. Two structural matches exist:
  // targets (1,2) gives e1={10} (the t=30 element would break the label
  // order), e2={20}; the swapped match (2,1) gives e1={20}, e2={30}.
  TimeSeriesGraph g = MakeGraph({{0, 1, 10, 5.0},
                                 {0, 1, 30, 5.0},
                                 {0, 2, 20, 4.0}});
  EnumerationOptions options;
  options.delta = 100;
  options.phi = 0.0;
  FlowMotifEnumerator enumerator(g, FanOut2(), options);
  std::vector<MotifInstance> instances;
  enumerator.Run([&](const InstanceView& view) {
    instances.push_back(view.Materialize());
    return true;
  });
  std::sort(instances.begin(), instances.end());
  ASSERT_EQ(instances.size(), 2u);
  EXPECT_EQ(instances[0].binding, (MatchBinding{0, 1, 2}));
  EXPECT_EQ(instances[0].edge_sets[0],
            (std::vector<Interaction>{{10, 5.0}}));
  EXPECT_EQ(instances[0].edge_sets[1],
            (std::vector<Interaction>{{20, 4.0}}));
  EXPECT_EQ(instances[1].binding, (MatchBinding{0, 2, 1}));
  EXPECT_EQ(instances[1].edge_sets[0],
            (std::vector<Interaction>{{20, 4.0}}));
  EXPECT_EQ(instances[1].edge_sets[1],
            (std::vector<Interaction>{{30, 5.0}}));
}

TEST(GeneralMotifEnumerationTest, InstancesAreValid) {
  // A denser fan graph; every emitted instance must satisfy the general
  // validity conditions (strict separation between consecutive labels).
  TimeSeriesGraph g = MakeGraph({
      {0, 1, 10, 2.0}, {0, 1, 12, 3.0}, {0, 1, 40, 1.0},
      {0, 2, 15, 4.0}, {0, 2, 18, 1.0}, {0, 2, 45, 2.0},
      {0, 3, 20, 6.0},
  });
  EnumerationOptions options;
  options.delta = 50;
  options.phi = 2.0;
  FlowMotifEnumerator enumerator(g, FanOut2(), options);
  int64_t count = 0;
  enumerator.Run([&](const InstanceView& view) {
    ++count;
    MotifInstance instance = view.Materialize();
    Status s = ValidateInstance(g, FanOut2(), instance, options.delta,
                                options.phi);
    EXPECT_TRUE(s.ok()) << s << " " << instance.ToString();
    return true;
  });
  EXPECT_GT(count, 0);
}

TEST(GeneralMotifEnumerationTest, CounterAgreesOnGeneralMotifs) {
  TimeSeriesGraph g = MakeGraph({
      {0, 1, 10, 2.0}, {0, 1, 12, 3.0}, {0, 2, 15, 4.0},
      {0, 2, 18, 1.0}, {1, 3, 20, 6.0}, {2, 3, 25, 2.0},
      {0, 3, 30, 1.0},
  });
  for (const Motif& motif : {FanOut2(), FanIn2(), Diamond()}) {
    EnumerationOptions options;
    options.delta = 40;
    options.phi = 0.0;
    int64_t enumerated =
        FlowMotifEnumerator(g, motif, options).Run().num_instances;
    InstanceCounter counter(g, motif, options.delta, options.phi);
    EXPECT_EQ(counter.Run().num_instances, enumerated) << motif.name();
  }
}

TEST(GeneralMotifEnumerationTest, SmurfingFanOutScenario) {
  // The paper's FIU motivation: one account splits a large amount to two
  // mules within minutes. phi forces the aggregate per edge to be large.
  TimeSeriesGraph g = MakeGraph({
      {0, 1, 100, 9.0}, {0, 1, 160, 8.0},   // mule 1, two small payments
      {0, 2, 200, 9.5}, {0, 2, 230, 8.5},   // mule 2
      {0, 1, 5000, 1.0},                    // unrelated later payment
  });
  EnumerationOptions options;
  options.delta = 300;
  options.phi = 15.0;  // only aggregated pairs of payments qualify
  FlowMotifEnumerator enumerator(g, FanOut2(), options);
  std::vector<MotifInstance> instances;
  enumerator.Run([&](const InstanceView& view) {
    instances.push_back(view.Materialize());
    return true;
  });
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].edge_sets[0].size(), 2u);  // both mule-1 payments
  EXPECT_EQ(instances[0].edge_sets[1].size(), 2u);  // both mule-2 payments
  EXPECT_DOUBLE_EQ(instances[0].InstanceFlow(), 17.0);
}

}  // namespace
}  // namespace flowmotif
