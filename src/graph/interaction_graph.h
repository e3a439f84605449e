#ifndef FLOWMOTIF_GRAPH_INTERACTION_GRAPH_H_
#define FLOWMOTIF_GRAPH_INTERACTION_GRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace flowmotif {

/// Mutable builder for an interaction network: the directed temporal
/// multigraph G(V, E) of the paper. Collect edges with AddEdge, then
/// convert to the immutable, query-friendly TimeSeriesGraph (the graph GT
/// of Sec. 4, Fig. 5) with TimeSeriesGraph::Build.
class InteractionGraph {
 public:
  /// One raw multigraph edge: u --(t, f)--> v.
  struct Edge {
    VertexId src;
    VertexId dst;
    Timestamp t;
    Flow f;
  };

  InteractionGraph() = default;

  /// Adds an interaction. Flow must be positive and finite; vertex ids
  /// must be non-negative. Self-loops are accepted (they can occur in
  /// real data, e.g. taxi trips within one zone) but never participate
  /// in motif instances since motif vertices map injectively.
  Status AddEdge(VertexId src, VertexId dst, Timestamp t, Flow f);

  /// Ensures the graph has at least `n` vertices (ids 0..n-1) even if some
  /// have no incident edges.
  void EnsureVertices(int64_t n);

  int64_t num_vertices() const { return num_vertices_; }
  int64_t num_interactions() const { return static_cast<int64_t>(edges_.size()); }
  const std::vector<Edge>& edges() const { return edges_; }

 private:
  int64_t num_vertices_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_GRAPH_INTERACTION_GRAPH_H_
