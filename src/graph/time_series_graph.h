#ifndef FLOWMOTIF_GRAPH_TIME_SERIES_GRAPH_H_
#define FLOWMOTIF_GRAPH_TIME_SERIES_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/edge_series.h"
#include "graph/interaction_graph.h"
#include "graph/types.h"
#include "util/random.h"

namespace flowmotif {

/// Immutable time-series graph GT(V, ET): all multigraph edges between an
/// ordered vertex pair are merged into one edge carrying the interaction
/// time series R(u, v) (paper Sec. 4, Fig. 5).
///
/// Layout is CSR-like: pair edges are stored sorted by (src, dst) with a
/// per-vertex offset table, so out-neighbor scans are contiguous and pair
/// lookup is a binary search within the source's range.
///
/// All storage is immutable and shared: the CSR index tables, and every
/// series' timestamp array and flow block (flows plus prefix sums, see
/// EdgeSeries). Copying a graph copies its pair table and pointers, not
/// arrays. WithPermutedFlows, the Sec. 6.3 null-model randomization,
/// shares the structure and timestamps by identity and allocates only
/// fresh flow blocks, so a whole significance ensemble stores one copy
/// of the timestamps plus N flow blocks. ExtendWith
/// shares the timestamps and flows of every series a seal leaves
/// untouched.
///
/// The class is immutable after Build and therefore safe for concurrent
/// readers.
class TimeSeriesGraph {
 public:
  /// One edge of GT with its time series.
  struct PairEdge {
    VertexId src;
    VertexId dst;
    EdgeSeries series;
  };

  /// Aggregate statistics (Table 3 of the paper).
  struct Stats {
    int64_t num_vertices = 0;
    int64_t num_connected_pairs = 0;  // |ET|
    int64_t num_interactions = 0;     // |E| of the multigraph
    double avg_flow_per_edge = 0.0;   // mean interaction flow
    Timestamp min_time = 0;
    Timestamp max_time = 0;
  };

  TimeSeriesGraph();

  /// Builds from a multigraph. Groups edges by (src, dst), sorts each
  /// series by time, and assembles the CSR index.
  static TimeSeriesGraph Build(const InteractionGraph& multigraph);

  /// Extends `base` with `new_edges`, producing the graph that Build
  /// would return on the union multigraph with `num_vertices` vertices —
  /// byte-identical series and CSR layout — while sharing as much of
  /// `base`'s immutable storage as possible. Series of pairs untouched
  /// by `new_edges` are copied by pointer: they keep their timestamp
  /// and flow storage and their identity (so skeleton traces recorded
  /// against them stay valid); dirty pairs get
  /// fresh storage stamped with `epoch`.
  /// The CSR index is shared by identity unless `new_edges` introduces
  /// a new (src, dst) pair or `num_vertices` grows, in which case it is
  /// rebuilt under `epoch`. This is the seal step of graph/epoch_log.h.
  /// Requires num_vertices >= base.num_vertices().
  static TimeSeriesGraph ExtendWith(
      const TimeSeriesGraph& base,
      std::vector<InteractionGraph::Edge> new_edges, int64_t num_vertices,
      EpochId epoch);

  int64_t num_vertices() const {
    return static_cast<int64_t>(
        index_->out_begin.empty() ? 0 : index_->out_begin.size() - 1);
  }
  int64_t num_pairs() const { return static_cast<int64_t>(pairs_.size()); }

  /// All pair edges, sorted by (src, dst).
  const std::vector<PairEdge>& pairs() const { return pairs_; }
  const PairEdge& pair(size_t i) const { return pairs_[i]; }

  /// Index range [OutBegin(v), OutEnd(v)) of pair edges with source v.
  size_t OutBegin(VertexId v) const { return index_->out_begin[v]; }
  size_t OutEnd(VertexId v) const { return index_->out_begin[v + 1]; }
  int64_t OutDegree(VertexId v) const {
    return static_cast<int64_t>(OutEnd(v) - OutBegin(v));
  }

  /// Reverse adjacency: for k in [InBegin(v), InEnd(v)),
  /// pair(InPairIndex(k)) is an edge with destination v, ordered by
  /// source. Used by the general-motif matcher to bind a new source
  /// vertex of a fan-in edge.
  size_t InBegin(VertexId v) const { return index_->in_begin[v]; }
  size_t InEnd(VertexId v) const { return index_->in_begin[v + 1]; }
  size_t InPairIndex(size_t k) const { return index_->in_index[k]; }
  int64_t InDegree(VertexId v) const {
    return static_cast<int64_t>(InEnd(v) - InBegin(v));
  }

  /// The series from u to v, or nullptr if the pair is not connected.
  const EdgeSeries* FindSeries(VertexId u, VertexId v) const;

  /// Index of the pair edge (u, v) in pairs(), or -1.
  int64_t FindPairIndex(VertexId u, VertexId v) const;

  /// Dataset statistics (Table 3).
  Stats ComputeStats() const;

  /// Returns a *flow-permutation view*: same structure and timestamps —
  /// shared by identity, not copied — with the multiset of flow values
  /// randomly permuted across all interactions, the randomization used
  /// for the significance analysis (Sec. 6.3). The view allocates only
  /// its flow blocks (flows plus prefix sums); every series reports the
  /// same timestamp_identity() as the original. The original graph is
  /// never modified. The RNG stream consumed is identical to
  /// the pre-view (deep-copying) implementation, so a seed reproduces
  /// the same flows.
  TimeSeriesGraph WithPermutedFlows(Rng* rng) const;

  /// A flow view carrying `flows` — one per interaction, in pair order
  /// (pairs(), then series index), the layout FlowPermutationStream
  /// draws — over this graph's shared topology and timestamps.
  /// WithPermutedFlows is this over a shuffled copy of the graph's own
  /// flows. `flows.size()` must equal the interaction count; flows must
  /// be > 0.
  TimeSeriesGraph WithFlows(const std::vector<Flow>& flows) const;

  /// Deep copy with freshly allocated timestamp, flow and topology
  /// storage: every series gets a new timestamp_identity(). The
  /// pre-refactor copying semantics, retained for the significance
  /// equivalence reference and for callers that need storage-independent
  /// graphs.
  TimeSeriesGraph DeepCopy() const;

  /// Stable identity of the shared CSR topology storage: equal for this
  /// graph and every WithPermutedFlows view of it — and for every
  /// ExtendWith epoch that adds no new pair or vertex — distinct for
  /// separately built (or deep-copied) graphs and for epochs that
  /// changed the topology. Exposed for tests and skeleton replay.
  StorageIdentity topology_identity() const {
    return StorageIdentity{index_.get(), topology_epoch_};
  }

  /// Human-readable one-line summary for logs.
  std::string DebugString() const;

 private:
  /// CSR index tables; immutable after Build and shared with
  /// flow-permutation views.
  struct Index {
    std::vector<size_t> out_begin;  // size num_vertices()+1
    std::vector<size_t> in_index;   // pair indices sorted by (dst, src)
    std::vector<size_t> in_begin;   // size num_vertices()+1
  };

  /// Assembles the CSR forward/reverse offset tables over `pairs`
  /// (sorted by (src, dst)) for an `n`-vertex graph.
  static Index BuildIndex(const std::vector<PairEdge>& pairs, int64_t n);

  std::vector<PairEdge> pairs_;  // sorted by (src, dst)
  std::shared_ptr<const Index> index_;  // never null
  // Epoch at which index_ was created; part of topology_identity().
  EpochId topology_epoch_ = 0;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_GRAPH_TIME_SERIES_GRAPH_H_
