#include "engine/batching.h"

#include <gtest/gtest.h>

#include "util/partition.h"

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

/// A one-vertex-per-match list: enough to tell shards apart.
MatchList List(const std::vector<VertexId>& vertices) {
  MatchList list(1);
  for (const VertexId v : vertices) list.Append(MatchBinding{v});
  return list;
}

TEST(ShardPrefixMergerTest, InOrderCompletionReleasesImmediately) {
  ShardPrefixMerger merger(2);
  auto released = merger.Complete(0, List({0, 1}));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].shard, 0);
  EXPECT_EQ(released[0].released.first_match_index, 0);
  EXPECT_EQ(released[0].released.matches->size(), 2);
  released = merger.Complete(1, List({2}));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].shard, 1);
  EXPECT_EQ(released[0].released.first_match_index, 2);
  EXPECT_EQ(merger.num_released(), 3);
}

TEST(ShardPrefixMergerTest, OutOfOrderCompletionHeldUntilPrefixForms) {
  ShardPrefixMerger merger(3);
  // Shard 2 first: nothing can be released yet.
  EXPECT_TRUE(merger.Complete(2, List({5})).empty());
  EXPECT_EQ(merger.num_released(), 0);
  // Shard 0 releases itself only.
  auto released = merger.Complete(0, List({1, 2}));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].released.first_match_index, 0);
  // Shard 1 completes the prefix: both 1 and the held 2 come out, with
  // global indices in serial order.
  released = merger.Complete(1, List({3, 4}));
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0].shard, 1);
  EXPECT_EQ(released[0].released.first_match_index, 2);
  EXPECT_EQ((*released[0].released.matches)[0][0], 3);
  EXPECT_EQ(released[1].shard, 2);
  EXPECT_EQ(released[1].released.first_match_index, 4);
  EXPECT_EQ((*released[1].released.matches)[0][0], 5);
  EXPECT_EQ(merger.num_released(), 5);
}

TEST(ShardPrefixMergerTest, EmptyShardsReleaseWithZeroWidth) {
  ShardPrefixMerger merger(3);
  EXPECT_TRUE(merger.Complete(1, List({})).empty());
  auto released = merger.Complete(0, List({}));
  // Two empty shards flush; indices do not advance.
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0].released.first_match_index, 0);
  EXPECT_EQ(released[1].released.first_match_index, 0);
  released = merger.Complete(2, List({7}));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].released.first_match_index, 0);
  EXPECT_EQ(merger.num_released(), 1);
}

TEST(ShardPrefixMergerTest, FreeShardReclaimsBufferKeepsAccounting) {
  ShardPrefixMerger merger(2);
  auto released = merger.Complete(0, List({0, 1}));
  ASSERT_EQ(released.size(), 1u);
  merger.FreeShard(released[0].shard);
  // The global index space and accounting are unaffected by the free.
  EXPECT_EQ(merger.num_released(), 2);
  released = merger.Complete(1, List({2}));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].released.first_match_index, 2);
  EXPECT_EQ(merger.num_released(), 3);
}

}  // namespace
}  // namespace flowmotif
