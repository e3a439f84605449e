#include "core/sliding_window.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "core/window_cursor.h"
#include "util/cancellation.h"
#include "util/failpoint.h"

namespace flowmotif {
namespace {

EdgeSeries Series(std::vector<Timestamp> times) {
  std::vector<Interaction> interactions;
  for (Timestamp t : times) interactions.push_back({t, 1.0});
  return EdgeSeries(interactions);
}

TEST(SlidingWindowTest, PaperFig7WindowPositions) {
  // e1 anchors: 10, 13, 15, 18; e3 elements: 14, 19, 24, 25; delta = 10.
  // The paper processes [10,20], skips [13,23] (no new e3 element in
  // (20,23]), processes [15,25], and [18,28] adds nothing new.
  EdgeSeries first = Series({10, 13, 15, 18});
  EdgeSeries last = Series({14, 19, 24, 25});
  std::vector<Window> windows = ComputeProcessedWindows(first, last, 10);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0], (Window{10, 20}));
  EXPECT_EQ(windows[1], (Window{15, 25}));
}

TEST(SlidingWindowTest, FirstWindowNeedsSomeLastEdgeElement) {
  EdgeSeries first = Series({10, 20});
  EdgeSeries last = Series({35});
  // [10,20] has no e_m element; [20,30] has none either.
  EXPECT_TRUE(ComputeProcessedWindows(first, last, 10).empty());
  // With delta 15, [20,35] catches 35.
  std::vector<Window> windows = ComputeProcessedWindows(first, last, 15);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0], (Window{20, 35}));
}

TEST(SlidingWindowTest, ElementAtAnchorCountsForFirstWindow) {
  // Single-edge motifs: first == last; the anchor element itself must
  // satisfy the novelty rule of the first window.
  EdgeSeries series = Series({5, 9});
  std::vector<Window> windows = ComputeProcessedWindows(series, series, 3);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0], (Window{5, 8}));
  EXPECT_EQ(windows[1], (Window{9, 12}));
}

TEST(SlidingWindowTest, DuplicateAnchorsProduceOneWindow) {
  EdgeSeries first = Series({10, 10, 12});
  EdgeSeries last = Series({11, 21, 22});
  std::vector<Window> windows = ComputeProcessedWindows(first, last, 10);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0], (Window{10, 20}));
  EXPECT_EQ(windows[1], (Window{12, 22}));
}

TEST(SlidingWindowTest, EveryAnchorNovelWhenLastEdgeDense) {
  EdgeSeries first = Series({0, 10, 20});
  EdgeSeries last = Series({5, 15, 25});
  std::vector<Window> windows = ComputeProcessedWindows(first, last, 10);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0], (Window{0, 10}));
  EXPECT_EQ(windows[1], (Window{10, 20}));
  EXPECT_EQ(windows[2], (Window{20, 30}));
}

TEST(SlidingWindowTest, EmptySeriesYieldNoWindows) {
  EdgeSeries empty;
  EdgeSeries some = Series({1, 2, 3});
  EXPECT_TRUE(ComputeProcessedWindows(empty, some, 10).empty());
  EXPECT_TRUE(ComputeProcessedWindows(some, empty, 10).empty());
}

TEST(SlidingWindowTest, ZeroDeltaWindows) {
  // delta = 0: a window is a single instant; only anchors coinciding
  // with a last-edge element qualify.
  EdgeSeries first = Series({10, 20});
  EdgeSeries last = Series({10, 30});
  std::vector<Window> windows = ComputeProcessedWindows(first, last, 0);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0], (Window{10, 10}));
}

TEST(SlidingWindowTest, MinimumTimestampAnchorIsProcessed) {
  // Regression: a first anchor at numeric_limits<Timestamp>::min()
  // collided with the old "previous anchor" sentinel and was dropped as
  // a duplicate, and its `anchor - 1` novelty probe underflowed.
  const Timestamp kMin = std::numeric_limits<Timestamp>::min();
  EdgeSeries first = Series({kMin});
  EdgeSeries last = Series({kMin + 5});
  std::vector<Window> windows = ComputeProcessedWindows(first, last, 10);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0], (Window{kMin, kMin + 10}));
}

TEST(SlidingWindowTest, MinimumTimestampAnchorElementCountsForNovelty) {
  // The last-edge element at exactly the minimum anchor must satisfy
  // the first window's closed-interval novelty rule (single-edge motif:
  // first == last).
  const Timestamp kMin = std::numeric_limits<Timestamp>::min();
  EdgeSeries series = Series({kMin});
  std::vector<Window> windows = ComputeProcessedWindows(series, series, 0);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0], (Window{kMin, kMin}));
}

TEST(SlidingWindowTest, MaximumTimestampAnchorSaturatesWindowEnd) {
  // The mirror of the min-sentinel underflow: an anchor near
  // numeric_limits<Timestamp>::max() must not signed-overflow when the
  // window end is computed — the end saturates at the axis maximum
  // (such a window cannot gain later elements anyway).
  const Timestamp kMax = std::numeric_limits<Timestamp>::max();
  EdgeSeries first = Series({kMax - 2, kMax});
  EdgeSeries last = Series({kMax - 1, kMax});
  std::vector<Window> windows = ComputeProcessedWindows(first, last, 10);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0], (Window{kMax - 2, kMax}));

  std::vector<Window> all = ComputeAllWindows(first, 10);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], (Window{kMax - 2, kMax}));
  EXPECT_EQ(all[1], (Window{kMax, kMax}));
}

TEST(SlidingWindowTest, MinimumTimestampDuplicateAnchorsProduceOneWindow) {
  const Timestamp kMin = std::numeric_limits<Timestamp>::min();
  EdgeSeries first = Series({kMin, kMin, kMin + 3});
  EdgeSeries last = Series({kMin + 1, kMin + 12});
  std::vector<Window> windows = ComputeProcessedWindows(first, last, 10);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0], (Window{kMin, kMin + 10}));
  EXPECT_EQ(windows[1], (Window{kMin + 3, kMin + 13}));
}

TEST(SlidingWindowTest, EmptyListAtOneDeltaMeansEmptyAtEverySmallerDelta) {
  // The sweep recorder's gate: it reads a match's widest-delta list
  // first and skips the match when that list is empty. A window needs an
  // R(em) element inside [anchor, anchor + delta], and that interval only
  // shrinks with delta, so an empty list must stay empty at every
  // smaller delta (delta = 0 and duplicate timestamps included).
  std::mt19937 rng(20260808);
  int empty_lists = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<Timestamp> ft, lt;
    Timestamp t = rng() % 50;
    for (size_t i = 0, n = rng() % 12; i < n; ++i) ft.push_back(t += rng() % 7);
    t = rng() % 50;
    for (size_t i = 0, n = rng() % 12; i < n; ++i) lt.push_back(t += rng() % 7);
    const EdgeSeries first = Series(ft);
    const EdgeSeries last = Series(lt);
    bool empty_above = false;
    for (Timestamp delta = 40; delta >= 0; --delta) {
      const bool empty = ComputeProcessedWindows(first, last, delta).empty();
      if (empty_above) {
        ASSERT_TRUE(empty) << "trial " << trial << " delta " << delta;
      }
      empty_above = empty;
      empty_lists += empty ? 1 : 0;
    }
  }
  EXPECT_GT(empty_lists, 0);
}

TEST(SlidingWindowTest, WindowsAreOrderedAndNonRedundant) {
  EdgeSeries first = Series({1, 2, 3, 4, 5, 6, 7, 8});
  EdgeSeries last = Series({3, 9, 12});
  std::vector<Window> windows = ComputeProcessedWindows(first, last, 4);
  for (size_t i = 1; i < windows.size(); ++i) {
    EXPECT_LT(windows[i - 1].start, windows[i].start);
    // Each processed window must contain a last-edge element after the
    // previous window's end.
    EdgeSeries last_copy = Series({3, 9, 12});
    EXPECT_TRUE(last_copy.HasElementInOpenClosed(windows[i - 1].end,
                                                 windows[i].end));
  }
}

TEST(SlidingWindowTest, WindowReaderComputesAndChargesEveryList) {
  // WindowReader::Get is ComputeProcessedWindows, and it charges every
  // list at "cache.windows", a repeated (first, last) pair included:
  // a window budget of exactly the lists' total completes, one less
  // stops there.
  std::mt19937 rng(20261020);
  const auto random_series = [&rng] {
    std::vector<Timestamp> times;
    Timestamp t = rng() % 50;
    for (size_t i = 0, n = 1 + rng() % 10; i < n; ++i) {
      times.push_back(t += rng() % 7);
    }
    return Series(times);
  };
  std::vector<std::pair<EdgeSeries, EdgeSeries>> pairs;
  for (int trial = 0; trial < 60; ++trial) {
    EdgeSeries first = random_series();
    pairs.emplace_back(std::move(first), random_series());
  }
  constexpr Timestamp kDelta = 6;
  int64_t total = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [first, last] : pairs) {
      total += static_cast<int64_t>(
          ComputeProcessedWindows(first, last, kDelta).size());
    }
  }
  ASSERT_GT(total, 0);

  for (const int64_t budget : {total, total - 1}) {
    WorkBudget caps;
    caps.max_window_elements = budget;
    QueryControl control(nullptr, QueryDeadline(), caps);
    WindowReader reader(kDelta, &control);
    EXPECT_EQ(reader.charge(), &control);
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& [first, last] : pairs) {
        EXPECT_EQ(reader.Get(first, last),
                  ComputeProcessedWindows(first, last, kDelta));
      }
    }
    const Termination termination = control.Finish();
    if (budget == total) {
      EXPECT_TRUE(termination.complete()) << termination.ToString();
    } else {
      EXPECT_EQ(termination.code, TerminationCode::kBudgetExceeded);
      EXPECT_EQ(termination.stopped_at, failpoint::kCacheWindows);
    }
  }
}

}  // namespace
}  // namespace flowmotif
