#include "util/partition.h"

#include <gtest/gtest.h>

#include <vector>

namespace flowmotif {
namespace {

void ExpectContiguousCover(const std::vector<IndexRange>& batches,
                           int64_t n) {
  int64_t expected_begin = 0;
  for (const IndexRange& batch : batches) {
    EXPECT_EQ(batch.begin, expected_begin);
    EXPECT_GT(batch.end, batch.begin);
    expected_begin = batch.end;
  }
  EXPECT_EQ(expected_begin, n);
}

TEST(BatchingTest, EmptyInputYieldsNoBatches) {
  EXPECT_TRUE(PartitionIndexSpace(0, 4).empty());
}

TEST(BatchingTest, SingleThreadIsOneBatch) {
  const auto batches = PartitionIndexSpace(1000, 1);
  ASSERT_EQ(batches.size(), 1u);
  ExpectContiguousCover(batches, 1000);
}

TEST(BatchingTest, DerivedBatchesCoverAndGiveSlack) {
  for (int threads : {2, 4, 8}) {
    const auto batches = PartitionIndexSpace(10000, threads);
    ExpectContiguousCover(batches, 10000);
    // Several batches per thread for load balancing.
    EXPECT_GE(static_cast<int>(batches.size()), threads);
  }
}

TEST(BatchingTest, FewerMatchesThanThreads) {
  const auto batches = PartitionIndexSpace(3, 8);
  ExpectContiguousCover(batches, 3);
  for (const IndexRange& batch : batches) EXPECT_EQ(batch.size(), 1);
}

TEST(BatchingTest, ExplicitBatchSizeRespected) {
  const auto batches = PartitionIndexSpace(10, 4, 4);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 4);
  EXPECT_EQ(batches[1].size(), 4);
  EXPECT_EQ(batches[2].size(), 2);
  ExpectContiguousCover(batches, 10);
}

TEST(BatchingTest, ExplicitBatchSizeAppliesToSingleThreadToo) {
  const auto batches = PartitionIndexSpace(10, 1, 3);
  ASSERT_EQ(batches.size(), 4u);
  ExpectContiguousCover(batches, 10);
}

}  // namespace
}  // namespace flowmotif
