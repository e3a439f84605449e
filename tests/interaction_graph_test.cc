#include "graph/interaction_graph.h"

#include <gtest/gtest.h>

#include <limits>

namespace flowmotif {
namespace {

TEST(InteractionGraphTest, StartsEmpty) {
  InteractionGraph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_interactions(), 0);
}

TEST(InteractionGraphTest, AddEdgeTracksVertices) {
  InteractionGraph g;
  ASSERT_TRUE(g.AddEdge(0, 5, 10, 1.5).ok());
  EXPECT_EQ(g.num_vertices(), 6);
  EXPECT_EQ(g.num_interactions(), 1);
  ASSERT_TRUE(g.AddEdge(7, 2, 11, 2.0).ok());
  EXPECT_EQ(g.num_vertices(), 8);
  EXPECT_EQ(g.num_interactions(), 2);
}

TEST(InteractionGraphTest, EdgeFieldsStored) {
  InteractionGraph g;
  ASSERT_TRUE(g.AddEdge(1, 2, 42, 3.25).ok());
  const auto& e = g.edges()[0];
  EXPECT_EQ(e.src, 1);
  EXPECT_EQ(e.dst, 2);
  EXPECT_EQ(e.t, 42);
  EXPECT_DOUBLE_EQ(e.f, 3.25);
}

TEST(InteractionGraphTest, RejectsNegativeVertices) {
  InteractionGraph g;
  EXPECT_EQ(g.AddEdge(-1, 2, 0, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(1, -2, 0, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.num_interactions(), 0);
}

TEST(InteractionGraphTest, RejectsNonPositiveFlow) {
  InteractionGraph g;
  EXPECT_FALSE(g.AddEdge(0, 1, 0, 0.0).ok());
  EXPECT_FALSE(g.AddEdge(0, 1, 0, -1.0).ok());
  EXPECT_FALSE(
      g.AddEdge(0, 1, 0, std::numeric_limits<Flow>::infinity()).ok());
  EXPECT_EQ(g.num_interactions(), 0);
}

TEST(InteractionGraphTest, AcceptsSelfLoops) {
  InteractionGraph g;
  EXPECT_TRUE(g.AddEdge(3, 3, 5, 1.0).ok());
  EXPECT_EQ(g.num_interactions(), 1);
}

TEST(InteractionGraphTest, AcceptsMultiEdgesAndNegativeTimes) {
  InteractionGraph g;
  EXPECT_TRUE(g.AddEdge(0, 1, -10, 1.0).ok());  // time domain is arbitrary
  EXPECT_TRUE(g.AddEdge(0, 1, -10, 2.0).ok());
  EXPECT_TRUE(g.AddEdge(0, 1, 3, 2.0).ok());
  EXPECT_EQ(g.num_interactions(), 3);
}

TEST(InteractionGraphTest, EnsureVerticesGrowsOnly) {
  InteractionGraph g;
  g.EnsureVertices(10);
  EXPECT_EQ(g.num_vertices(), 10);
  g.EnsureVertices(4);
  EXPECT_EQ(g.num_vertices(), 10);
  ASSERT_TRUE(g.AddEdge(0, 1, 0, 1.0).ok());
  EXPECT_EQ(g.num_vertices(), 10);
}

}  // namespace
}  // namespace flowmotif
