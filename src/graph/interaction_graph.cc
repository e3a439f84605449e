#include "graph/interaction_graph.h"

#include <cmath>
#include <string>

namespace flowmotif {

Status InteractionGraph::AddEdge(VertexId src, VertexId dst, Timestamp t,
                                 Flow f) {
  if (src < 0 || dst < 0) {
    return Status::InvalidArgument("vertex ids must be non-negative");
  }
  if (!std::isfinite(f) || f <= 0.0) {
    return Status::InvalidArgument("flow must be positive and finite, got " +
                                   std::to_string(f));
  }
  edges_.push_back(Edge{src, dst, t, f});
  int64_t needed = static_cast<int64_t>(std::max(src, dst)) + 1;
  if (needed > num_vertices_) num_vertices_ = needed;
  return Status::OK();
}

void InteractionGraph::EnsureVertices(int64_t n) {
  if (n > num_vertices_) num_vertices_ = n;
}

}  // namespace flowmotif
