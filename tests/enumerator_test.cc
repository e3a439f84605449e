#include "core/enumerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/motif.h"
#include "test_util.h"

namespace flowmotif {
namespace {

using testing_util::MakeGraph;

Motif Chain2() { return *Motif::FromSpanningPath({0, 1}); }
Motif Chain3() { return *Motif::FromSpanningPath({0, 1, 2}); }

EnumerationOptions Opts(Timestamp delta, Flow phi) {
  EnumerationOptions o;
  o.delta = delta;
  o.phi = phi;
  return o;
}

std::vector<MotifInstance> Collect(const TimeSeriesGraph& g,
                                   const Motif& motif, Timestamp delta,
                                   Flow phi) {
  FlowMotifEnumerator enumerator(g, motif, Opts(delta, phi));
  std::vector<MotifInstance> out = enumerator.CollectAll();
  std::sort(out.begin(), out.end());
  return out;
}

TEST(EnumeratorTest, SingleEdgeMotifTakesWholeWindow) {
  TimeSeriesGraph g = MakeGraph({{0, 1, 10, 1.0}, {0, 1, 12, 2.0},
                                 {0, 1, 30, 4.0}});
  std::vector<MotifInstance> instances = Collect(g, Chain2(), 5, 0.0);
  // Window [10,15] -> {(10,1),(12,2)}; window [12,17] adds no new last-
  // edge element -> skipped; window [30,35] -> {(30,4)}.
  ASSERT_EQ(instances.size(), 2u);
  EXPECT_EQ(instances[0].edge_sets[0],
            (std::vector<Interaction>{{10, 1.0}, {12, 2.0}}));
  EXPECT_EQ(instances[1].edge_sets[0],
            (std::vector<Interaction>{{30, 4.0}}));
}

TEST(EnumeratorTest, SingleEdgePhiFiltersWindows) {
  TimeSeriesGraph g = MakeGraph({{0, 1, 10, 1.0}, {0, 1, 12, 2.0},
                                 {0, 1, 30, 4.0}});
  std::vector<MotifInstance> instances = Collect(g, Chain2(), 5, 3.5);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].edge_sets[0],
            (std::vector<Interaction>{{30, 4.0}}));
}

TEST(EnumeratorTest, ChainRequiresStrictTimeOrder) {
  // e2's only element is before e1's -> no instance.
  TimeSeriesGraph g = MakeGraph({{0, 1, 10, 1.0}, {1, 2, 5, 1.0}});
  EXPECT_TRUE(Collect(g, Chain3(), 100, 0.0).empty());

  // Equal timestamps are not strictly after -> no instance.
  TimeSeriesGraph g2 = MakeGraph({{0, 1, 10, 1.0}, {1, 2, 10, 1.0}});
  EXPECT_TRUE(Collect(g2, Chain3(), 100, 0.0).empty());

  TimeSeriesGraph g3 = MakeGraph({{0, 1, 10, 1.0}, {1, 2, 11, 1.0}});
  EXPECT_EQ(Collect(g3, Chain3(), 100, 0.0).size(), 1u);
}

TEST(EnumeratorTest, DeltaBoundsInstanceSpan) {
  TimeSeriesGraph g = MakeGraph({{0, 1, 10, 1.0}, {1, 2, 25, 1.0}});
  EXPECT_TRUE(Collect(g, Chain3(), 10, 0.0).empty());
  EXPECT_EQ(Collect(g, Chain3(), 15, 0.0).size(), 1u);
}

TEST(EnumeratorTest, MultipleSplitsEnumerated) {
  // e1: (10,1),(12,1); e2: (11,1),(13,1). Two canonical instances:
  // split after 10 -> e1={10}, e2={11,13}; split after 12 -> e1={10,12},
  // e2={13}.
  TimeSeriesGraph g = MakeGraph({{0, 1, 10, 1.0}, {0, 1, 12, 1.0},
                                 {1, 2, 11, 1.0}, {1, 2, 13, 1.0}});
  std::vector<MotifInstance> instances = Collect(g, Chain3(), 10, 0.0);
  ASSERT_EQ(instances.size(), 2u);
  EXPECT_EQ(instances[0].edge_sets[0],
            (std::vector<Interaction>{{10, 1.0}}));
  EXPECT_EQ(instances[0].edge_sets[1],
            (std::vector<Interaction>{{11, 1.0}, {13, 1.0}}));
  EXPECT_EQ(instances[1].edge_sets[0],
            (std::vector<Interaction>{{10, 1.0}, {12, 1.0}}));
  EXPECT_EQ(instances[1].edge_sets[1],
            (std::vector<Interaction>{{13, 1.0}}));
}

TEST(EnumeratorTest, DominationRuleSkipsRedundantPrefix) {
  // e1: (10,1),(12,1); e2: (13,1) only. The prefix e1={10} would give
  // e2={13}, a strict sub-instance of e1={10,12}, e2={13} -> skipped.
  TimeSeriesGraph g = MakeGraph({{0, 1, 10, 1.0}, {0, 1, 12, 1.0},
                                 {1, 2, 13, 1.0}});
  std::vector<MotifInstance> instances = Collect(g, Chain3(), 10, 0.0);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].edge_sets[0],
            (std::vector<Interaction>{{10, 1.0}, {12, 1.0}}));

  FlowMotifEnumerator enumerator(g, Chain3(), Opts(10, 0.0));
  EnumerationResult result = enumerator.Run();
  EXPECT_EQ(result.num_instances, 1);
  EXPECT_GE(result.num_domination_skips, 1);
}

TEST(EnumeratorTest, PhiPrunesPrefixes) {
  // e1 prefix {10} has flow 1 < phi=2 but {10,12} has 2.
  TimeSeriesGraph g = MakeGraph({{0, 1, 10, 1.0}, {0, 1, 12, 1.0},
                                 {1, 2, 11, 5.0}, {1, 2, 13, 5.0}});
  std::vector<MotifInstance> instances = Collect(g, Chain3(), 10, 2.0);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].edge_sets[0],
            (std::vector<Interaction>{{10, 1.0}, {12, 1.0}}));
  EXPECT_EQ(instances[0].edge_sets[1],
            (std::vector<Interaction>{{13, 5.0}}));

  FlowMotifEnumerator enumerator(g, Chain3(), Opts(10, 2.0));
  EnumerationResult result = enumerator.Run();
  EXPECT_GE(result.num_phi_prunes, 1);
}

TEST(EnumeratorTest, InstanceFlowIsMinimumEdgeFlow) {
  TimeSeriesGraph g = MakeGraph({{0, 1, 10, 7.0}, {1, 2, 12, 3.0}});
  FlowMotifEnumerator enumerator(g, Chain3(), Opts(10, 0.0));
  std::vector<Flow> flows;
  enumerator.Run([&flows](const InstanceView& view) {
    flows.push_back(view.flow);
    return true;
  });
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_DOUBLE_EQ(flows[0], 3.0);
}

TEST(EnumeratorTest, VisitorEarlyStop) {
  TimeSeriesGraph g = testing_util::PaperFig7Graph();
  Motif m33 = *Motif::FromSpanningPath({0, 1, 2, 0});
  FlowMotifEnumerator enumerator(g, m33, Opts(10, 0.0));
  int seen = 0;
  EnumerationResult result = enumerator.Run([&seen](const InstanceView&) {
    ++seen;
    return false;  // stop immediately
  });
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(result.num_instances, 1);
}

TEST(EnumeratorTest, EveryEmittedInstanceIsValid) {
  TimeSeriesGraph g = testing_util::PaperFig2Graph();
  Motif m33 = *Motif::FromSpanningPath({0, 1, 2, 0});
  const Timestamp delta = 10;
  const Flow phi = 5.0;
  FlowMotifEnumerator enumerator(g, m33, Opts(delta, phi));
  enumerator.Run([&](const InstanceView& view) {
    MotifInstance instance = view.Materialize();
    Status s = ValidateInstance(g, m33, instance, delta, phi);
    EXPECT_TRUE(s.ok()) << s << " for " << instance.ToString();
    EXPECT_DOUBLE_EQ(instance.InstanceFlow(), view.flow);
    return true;
  });
}

TEST(EnumeratorTest, RunOnMatchesAgreesWithRun) {
  TimeSeriesGraph g = testing_util::PaperFig2Graph();
  Motif m33 = *Motif::FromSpanningPath({0, 1, 2, 0});
  FlowMotifEnumerator enumerator(g, m33, Opts(10, 5.0));

  StructuralMatcher matcher(g, m33);
  EnumerationResult via_matches =
      enumerator.RunOnMatches(matcher.FindAllMatches());
  EnumerationResult via_run = enumerator.Run();
  EXPECT_EQ(via_matches.num_instances, via_run.num_instances);
  EXPECT_EQ(via_matches.num_windows_processed,
            via_run.num_windows_processed);
}

TEST(EnumeratorTest, StrictMaximalityOnlyEmitsMaximalInstances) {
  TimeSeriesGraph g = testing_util::PaperFig7Graph();
  Motif m33 = *Motif::FromSpanningPath({0, 1, 2, 0});
  EnumerationOptions options = Opts(10, 0.0);
  options.strict_maximality = true;
  FlowMotifEnumerator enumerator(g, m33, options);
  enumerator.Run([&](const InstanceView& view) {
    MotifInstance instance = view.Materialize();
    EXPECT_TRUE(IsMaximalInstance(g, m33, instance, 10))
        << instance.ToString();
    return true;
  });
}

TEST(EnumeratorTest, CountersArePopulated) {
  TimeSeriesGraph g = testing_util::PaperFig2Graph();
  Motif m33 = *Motif::FromSpanningPath({0, 1, 2, 0});
  FlowMotifEnumerator enumerator(g, m33, Opts(10, 7.0));
  EnumerationResult result = enumerator.Run();
  EXPECT_EQ(result.num_structural_matches, 6);
  EXPECT_GT(result.num_windows_processed, 0);
  EXPECT_GE(result.phase1_seconds, 0.0);
  EXPECT_GE(result.phase2_seconds, 0.0);
}

TEST(EnumeratorTest, EmptyEdgeSliceFlowSumIsZero) {
  // Regression: begin == end used to call EdgeSeries::FlowSum(begin,
  // end - 1) with a wrapped index and only returned 0 by luck of the
  // series' own range check.
  TimeSeriesGraph g = MakeGraph({{0, 1, 10, 1.0}, {0, 1, 12, 2.0}});
  const EdgeSeries* series = g.FindSeries(0, 1);
  ASSERT_NE(series, nullptr);

  EdgeSlice empty_at_zero{series, 0, 0};
  EXPECT_EQ(empty_at_zero.size(), 0u);
  EXPECT_DOUBLE_EQ(empty_at_zero.FlowSum(), 0.0);

  EdgeSlice empty_mid{series, 1, 1};
  EXPECT_DOUBLE_EQ(empty_mid.FlowSum(), 0.0);

  EdgeSlice empty_at_end{series, 2, 2};
  EXPECT_DOUBLE_EQ(empty_at_end.FlowSum(), 0.0);

  EdgeSlice whole{series, 0, 2};
  EXPECT_DOUBLE_EQ(whole.FlowSum(), 3.0);
}

TEST(EnumeratorDeathTest, NegativeDeltaAborts) {
  TimeSeriesGraph g = testing_util::PaperFig2Graph();
  Motif m = *Motif::FromSpanningPath({0, 1});
  EXPECT_DEATH(FlowMotifEnumerator(g, m, Opts(-1, 0.0)), "delta");
}

TEST(EnumeratorDeathTest, ReaderAtAnotherDeltaAborts) {
  // A reader at another delta would enumerate that delta's windows; the
  // enumerator checks the reader it is handed.
  TimeSeriesGraph g = testing_util::PaperFig2Graph();
  Motif m = *Motif::FromSpanningPath({0, 1, 2, 0});
  FlowMotifEnumerator enumerator(g, m, Opts(10, 0.0));
  EnumerationResult result;
  WindowReader same = enumerator.NewReader();
  EXPECT_TRUE(
      enumerator.EnumerateMatch(MatchBinding{2, 0, 1}, nullptr, &result,
                                &same));
  EXPECT_GT(result.num_instances, 0);
  WindowReader other(9);
  EXPECT_DEATH(enumerator.EnumerateMatch(MatchBinding{2, 0, 1}, nullptr,
                                         &result, &other),
               "another delta");
}

}  // namespace
}  // namespace flowmotif
