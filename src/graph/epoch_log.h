#ifndef FLOWMOTIF_GRAPH_EPOCH_LOG_H_
#define FLOWMOTIF_GRAPH_EPOCH_LOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace flowmotif {

/// Append-friendly front end over the immutable TimeSeriesGraph: an
/// epoch-stamped immutable snapshot plus a mutable append tail.
///
/// `Append` buffers edges in the tail; `SealEpoch` folds the tail into a
/// new immutable snapshot (TimeSeriesGraph::ExtendWith) and publishes it
/// atomically. Readers holding an older snapshot keep a fully valid
/// graph: snapshots are shared_ptr-owned and immutable, series untouched
/// by a seal are carried into the new snapshot by pointer — they keep
/// their timestamp and flow storage and their StorageIdentity across
/// epochs (so skeleton traces recorded against them stay valid) — and
/// dirty series get fresh storage stamped with the new epoch. A seal
/// therefore allocates series storage only for the pairs it dirties,
/// and an old snapshot pinned by a reader shares every untouched series
/// with the live one.
///
/// The byte-identity contract of the whole streaming subsystem rests on
/// one property of the seal: the snapshot after sealing appends
/// e_1..e_n is byte-identical to TimeSeriesGraph::Build on the seed
/// multigraph plus e_1..e_n. Queries against any epoch therefore answer
/// exactly as a batch run on the equivalent static prefix graph.
///
/// Threading: one writer (Append/SealEpoch); any number of concurrent
/// Snapshot readers.
///
/// The stream contract is monotone time: every appended edge must carry
/// a timestamp >= every timestamp already in the log (checked). This is
/// what lets downstream maintenance split δ-windows into settled
/// (end < watermark: no future edge can join) and hot regions, and ages
/// matches out of a sliding horizon with a ring buffer.
class EpochLog {
 public:
  /// Outcome of one SealEpoch: the published snapshot plus the delta
  /// description downstream incremental maintenance needs.
  struct SealInfo {
    EpochId epoch = 0;
    std::shared_ptr<const TimeSeriesGraph> graph;
    /// (src, dst) pairs whose series changed in this seal, sorted,
    /// deduplicated. Empty when the tail was empty.
    std::vector<std::pair<VertexId, VertexId>> dirty_pairs;
    /// Pairs of dirty_pairs that did not exist before this epoch (new
    /// topology); subset of dirty_pairs, sorted.
    std::vector<std::pair<VertexId, VertexId>> new_pairs;
    /// Smallest timestamp among the sealed edges (meaningless when
    /// num_appended == 0).
    Timestamp min_new_time = 0;
    /// Largest timestamp in the whole log after the seal.
    Timestamp watermark = 0;
    size_t num_appended = 0;
    bool topology_changed = false;
  };

  /// An empty log: epoch 0 is the empty graph.
  EpochLog();

  /// Seeds epoch 0 with a static multigraph snapshot.
  explicit EpochLog(const InteractionGraph& seed);

  /// Seeds epoch 0 with an already-built snapshot, adopting it without
  /// a rebuild (the serving layer fronts a caller-provided graph this
  /// way). The graph's own epoch stamps are preserved.
  explicit EpochLog(TimeSeriesGraph seed);

  /// Buffers one edge in the mutable tail. Vertices grow on demand.
  /// Ingest is an untrusted boundary, so bad edges are rejected with
  /// InvalidArgument — negative vertex ids, a flow that is not positive
  /// and finite, or a timestamp that precedes one already in the log
  /// (the stream contract is monotone time) — and the tail is left
  /// unchanged: the log stays valid and later well-formed appends still
  /// succeed.
  Status Append(VertexId src, VertexId dst, Timestamp t, Flow f);
  Status Append(const InteractionGraph::Edge& edge) {
    return Append(edge.src, edge.dst, edge.t, edge.f);
  }

  /// Folds the tail into a new immutable snapshot and publishes it.
  /// Costs the rebuild of the dirty series plus a copy of the pair
  /// table (and an index rebuild when a pair or vertex is new), not a
  /// copy of the graph's series. With an empty tail this is a no-op
  /// returning the current epoch (num_appended == 0, no new snapshot).
  SealInfo SealEpoch();

  /// The latest published snapshot; never null, safe to hold across
  /// later appends and seals.
  std::shared_ptr<const TimeSeriesGraph> Snapshot() const;

  /// Epoch id of the latest published snapshot (0 = seed).
  EpochId epoch() const { return epoch_; }

  /// Number of buffered (unsealed) edges.
  size_t tail_size() const { return tail_.size(); }

  /// Largest timestamp in the log (published or buffered); the settled /
  /// hot boundary of the monotone stream. Timestamp minimum when empty.
  Timestamp watermark() const { return watermark_; }

  int64_t num_vertices() const { return num_vertices_; }

 private:
  // Writer state (single writer).
  std::vector<InteractionGraph::Edge> tail_;
  int64_t num_vertices_ = 0;
  Timestamp watermark_;
  EpochId epoch_ = 0;
  bool empty_ = true;  // no edge published or buffered yet

  // Published snapshot; guarded for concurrent readers.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const TimeSeriesGraph> snapshot_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_GRAPH_EPOCH_LOG_H_
