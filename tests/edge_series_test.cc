#include "graph/edge_series.h"

#include <gtest/gtest.h>

#include <vector>

namespace flowmotif {
namespace {

EdgeSeries MakeSeries() {
  return EdgeSeries({{10, 5.0}, {13, 2.0}, {15, 3.0}, {18, 7.0}});
}

TEST(EdgeSeriesTest, EmptySeries) {
  EdgeSeries s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.TotalFlow(), 0.0);
  EXPECT_EQ(s.LowerBound(0), 0u);
}

TEST(EdgeSeriesTest, SortsUnorderedInput) {
  EdgeSeries s({{15, 3.0}, {10, 5.0}, {18, 7.0}, {13, 2.0}});
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.time(0), 10);
  EXPECT_EQ(s.time(1), 13);
  EXPECT_EQ(s.time(2), 15);
  EXPECT_EQ(s.time(3), 18);
  EXPECT_DOUBLE_EQ(s.flow(0), 5.0);
}

TEST(EdgeSeriesTest, AtReturnsInteraction) {
  EdgeSeries s = MakeSeries();
  EXPECT_EQ(s.at(1), (Interaction{13, 2.0}));
}

TEST(EdgeSeriesTest, FlowSumInclusiveRanges) {
  EdgeSeries s = MakeSeries();
  EXPECT_DOUBLE_EQ(s.FlowSum(0, 3), 17.0);
  EXPECT_DOUBLE_EQ(s.FlowSum(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(s.FlowSum(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(s.FlowSum(3, 3), 7.0);
}

TEST(EdgeSeriesTest, FlowSumDegenerateRanges) {
  EdgeSeries s = MakeSeries();
  EXPECT_EQ(s.FlowSum(2, 1), 0.0);   // inverted
  EXPECT_EQ(s.FlowSum(0, 10), 0.0);  // j out of range
}

TEST(EdgeSeriesTest, TotalFlow) {
  EXPECT_DOUBLE_EQ(MakeSeries().TotalFlow(), 17.0);
}

TEST(EdgeSeriesTest, LowerAndUpperBound) {
  EdgeSeries s = MakeSeries();
  EXPECT_EQ(s.LowerBound(10), 0u);
  EXPECT_EQ(s.LowerBound(11), 1u);
  EXPECT_EQ(s.LowerBound(13), 1u);
  EXPECT_EQ(s.LowerBound(19), 4u);
  EXPECT_EQ(s.UpperBound(10), 1u);
  EXPECT_EQ(s.UpperBound(9), 0u);
  EXPECT_EQ(s.UpperBound(18), 4u);
}

TEST(EdgeSeriesTest, BoundsWithDuplicateTimestamps) {
  EdgeSeries s({{10, 1.0}, {10, 2.0}, {12, 3.0}});
  EXPECT_EQ(s.LowerBound(10), 0u);
  EXPECT_EQ(s.UpperBound(10), 2u);
  EXPECT_DOUBLE_EQ(s.FlowInClosed(10, 10), 3.0);
}

TEST(EdgeSeriesTest, FlowInOpenClosed) {
  EdgeSeries s = MakeSeries();
  // (10, 15] -> elements at 13 and 15.
  EXPECT_DOUBLE_EQ(s.FlowInOpenClosed(10, 15), 5.0);
  // (9, 18] -> everything.
  EXPECT_DOUBLE_EQ(s.FlowInOpenClosed(9, 18), 17.0);
  // (15, 17] -> nothing.
  EXPECT_EQ(s.FlowInOpenClosed(15, 17), 0.0);
  // Empty interval.
  EXPECT_EQ(s.FlowInOpenClosed(15, 15), 0.0);
  EXPECT_EQ(s.FlowInOpenClosed(16, 15), 0.0);
}

TEST(EdgeSeriesTest, FlowInClosed) {
  EdgeSeries s = MakeSeries();
  EXPECT_DOUBLE_EQ(s.FlowInClosed(10, 15), 10.0);
  EXPECT_DOUBLE_EQ(s.FlowInClosed(11, 14), 2.0);
  EXPECT_DOUBLE_EQ(s.FlowInClosed(10, 10), 5.0);
  EXPECT_EQ(s.FlowInClosed(11, 12), 0.0);
  EXPECT_EQ(s.FlowInClosed(19, 10), 0.0);
}

TEST(EdgeSeriesTest, HasElementInOpenClosed) {
  EdgeSeries s = MakeSeries();
  EXPECT_TRUE(s.HasElementInOpenClosed(10, 13));
  EXPECT_TRUE(s.HasElementInOpenClosed(17, 18));
  EXPECT_FALSE(s.HasElementInOpenClosed(15, 17));
  EXPECT_FALSE(s.HasElementInOpenClosed(18, 30));
  EXPECT_FALSE(s.HasElementInOpenClosed(13, 13));
}

TEST(EdgeSeriesTest, ReplaceFlowsRebuildsPrefixSums) {
  EdgeSeries s = MakeSeries();
  s.ReplaceFlows({1.0, 1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(s.TotalFlow(), 4.0);
  EXPECT_DOUBLE_EQ(s.FlowSum(1, 2), 2.0);
  EXPECT_EQ(s.time(0), 10);  // timestamps untouched
}

TEST(EdgeSeriesTest, FlowChangesOnACopyLeaveTheSourceUnchanged) {
  // Copies share one immutable flow block. ReplaceFlows is copy-on-write
  // and WithFlows builds a fresh block, so neither writes through to the
  // series the storage came from.
  const EdgeSeries source = MakeSeries();  // flows 5, 2, 3, 7
  const std::vector<Flow> source_flows = {5.0, 2.0, 3.0, 7.0};
  const auto expect_source_unchanged = [&] {
    EXPECT_EQ(source.flows(), source_flows);
    for (size_t i = 0; i < source_flows.size(); ++i) {
      EXPECT_EQ(source.flow(i), source_flows[i]);
    }
    EXPECT_EQ(source.FlowSum(1, 2), 5.0);
    EXPECT_EQ(source.FlowSum(0, 3), 17.0);
    EXPECT_EQ(source.TotalFlow(), 17.0);
  };

  EdgeSeries copy = source;
  EXPECT_EQ(copy.prefix_sums(), source.prefix_sums());  // one shared block
  copy.ReplaceFlows({1.0, 1.0, 1.0, 1.0});
  EXPECT_NE(copy.prefix_sums(), source.prefix_sums());
  EXPECT_EQ(copy.TotalFlow(), 4.0);
  EXPECT_EQ(copy.FlowSum(1, 2), 2.0);
  EXPECT_EQ(copy.timestamp_identity(), source.timestamp_identity());
  expect_source_unchanged();

  const EdgeSeries view = source.WithFlows({4.0, 3.0, 2.0, 1.0});
  EXPECT_EQ(view.flow(0), 4.0);
  EXPECT_EQ(view.FlowSum(1, 2), 5.0);
  EXPECT_EQ(view.TotalFlow(), 10.0);
  expect_source_unchanged();
}

TEST(EdgeSeriesDeathTest, NonPositiveFlowRejected) {
  EXPECT_DEATH(EdgeSeries({{1, 0.0}}), "positive");
  EXPECT_DEATH(EdgeSeries({{1, -2.0}}), "positive");
}

TEST(EdgeSeriesDeathTest, ReplaceFlowsSizeMismatchAborts) {
  EdgeSeries s = MakeSeries();
  std::vector<Flow> wrong_size{1.0, 2.0};
  EXPECT_DEATH(s.ReplaceFlows(wrong_size), "Check failed");
}

TEST(EdgeSeriesTest, PrefixSumsMatchNaiveSummation) {
  std::vector<Interaction> interactions;
  for (int i = 0; i < 200; ++i) {
    interactions.push_back({i * 3, 1.0 + (i % 7)});
  }
  EdgeSeries s(interactions);
  for (size_t i = 0; i < s.size(); i += 17) {
    for (size_t j = i; j < s.size(); j += 13) {
      double naive = 0.0;
      for (size_t k = i; k <= j; ++k) naive += s.flow(k);
      EXPECT_DOUBLE_EQ(s.FlowSum(i, j), naive);
    }
  }
}

TEST(EdgeSeriesTest, FlowInIndexRangeMatchesFlowInClosed) {
  EdgeSeries s = MakeSeries();  // times 10, 13, 15, 18
  for (Timestamp lo = 8; lo <= 20; ++lo) {
    for (Timestamp hi = lo; hi <= 20; ++hi) {
      EXPECT_EQ(s.FlowInIndexRange(s.LowerBound(lo), s.UpperBound(hi)),
                s.FlowInClosed(lo, hi))
          << "lo=" << lo << " hi=" << hi;
    }
  }
  EXPECT_EQ(s.FlowInIndexRange(2, 2), 0.0);
  EXPECT_EQ(s.FlowInIndexRange(3, 1), 0.0);
}

TEST(EdgeSeriesTest, GallopingAdvanceMatchesBinarySearch) {
  // The cursor advances must agree with the plain binary searches from
  // every valid starting position — including duplicate-timestamp runs,
  // gap timestamps, and the past-the-end position.
  std::vector<Interaction> interactions;
  for (int i = 0; i < 60; ++i) {
    interactions.push_back({(i / 3) * 5, 1.0 + (i % 4)});  // triples, gaps
  }
  EdgeSeries s(interactions);
  for (Timestamp t = -2; t <= s.time(s.size() - 1) + 3; ++t) {
    const size_t lower = s.LowerBound(t);
    const size_t upper = s.UpperBound(t);
    for (size_t from = 0; from <= s.size(); ++from) {
      if (from <= lower) {
        EXPECT_EQ(s.AdvanceLowerBound(from, t), lower)
            << "t=" << t << " from=" << from;
      }
      if (from <= upper) {
        EXPECT_EQ(s.AdvanceUpperBound(from, t), upper)
            << "t=" << t << " from=" << from;
      }
    }
    // A cursor already past the target stays put (monotone contract).
    EXPECT_EQ(s.AdvanceLowerBound(s.size(), t), s.size());
    EXPECT_EQ(s.AdvanceUpperBound(s.size(), t), s.size());
  }
}

}  // namespace
}  // namespace flowmotif
