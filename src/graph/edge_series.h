#ifndef FLOWMOTIF_GRAPH_EDGE_SERIES_H_
#define FLOWMOTIF_GRAPH_EDGE_SERIES_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace flowmotif {

/// The interaction time series R(u, v) on one edge of the time-series
/// graph: all (t, f) elements from u to v, ordered by time.
///
/// Storage is immutable and shared by copies, in two blocks: the
/// timestamp array, and one flow block holding the size() flow values
/// followed by their size() + 1 prefix sums. Copying a series copies two
/// pointers, never an array, so a seal (TimeSeriesGraph::ExtendWith)
/// carries every series it did not touch into the next epoch for the
/// price of the pointers. A flow-permuted view (WithFlows) gets a fresh
/// flow block but shares the timestamps of its source series by identity
/// — the significance module's null-model graphs (Sec. 6.3) keep
/// structure and timestamps fixed, so every timestamp-derived artifact
/// (window lists, union timelines, structural matches) is bit-identical
/// across the whole permutation ensemble and can be cached under
/// timestamp_identity(). Nothing writes into a published block:
/// ReplaceFlows installs a fresh one (copy-on-write), so it never
/// changes another series that shares the old block.
///
/// Flow prefix sums are maintained so that the aggregated flow of any
/// contiguous index range — the quantity `flow([tj, ti], k)` of Eq. 2 and
/// the phi-checks of Algorithm 1 — costs O(1) after an O(log n) binary
/// search by time.
class EdgeSeries {
 public:
  /// An empty series sharing the static empty timestamp and flow
  /// storage.
  EdgeSeries();

  /// Builds from interactions; sorts them by (time, flow). The series
  /// gets a fresh timestamp array (a new identity) and a fresh flow
  /// block. `epoch` stamps the identity with the creation epoch of the
  /// storage (0 for static graphs).
  explicit EdgeSeries(std::vector<Interaction> interactions,
                      EpochId epoch = 0);

  /// A view over this series' timestamp storage (shared by identity, not
  /// copied) carrying `new_flows` in element order in a fresh flow
  /// block. The significance module's flow permutation builds its
  /// randomized graphs from these views, so N permutations store N flow
  /// blocks but one timestamp array. `new_flows.size()` must equal
  /// size(); flows must be > 0.
  EdgeSeries WithFlows(const std::vector<Flow>& new_flows) const;

  /// Copy with freshly allocated timestamp and flow storage — a distinct
  /// timestamp_identity(). The retained pre-refactor copying semantics,
  /// used by TimeSeriesGraph::DeepCopy.
  EdgeSeries DeepCopy() const;

  /// A new series over fresh storage holding this series' interactions
  /// plus `tail`, sorted — byte-identical to rebuilding the series from
  /// the union of interactions, so an epoch-sealed streamed graph is
  /// indistinguishable from a statically built one. The result's
  /// identity carries `epoch`; this series (and any cache entries keyed
  /// on its identity) is untouched.
  EdgeSeries WithAppended(std::vector<Interaction> tail, EpochId epoch) const;

  /// Stable identity of the (immutable, shared) timestamp storage: equal
  /// for this series and every WithFlows view derived from it, distinct
  /// for series built from interactions. SharedWindowCache keys on this,
  /// which is what lets one window cache serve a whole flow-permutation
  /// ensemble. The epoch stamp keeps the identity unambiguous across an
  /// appending stream even if freed storage addresses are reused (see
  /// StorageIdentity in graph/types.h).
  StorageIdentity timestamp_identity() const {
    return StorageIdentity{times_.get(), storage_epoch_};
  }

  size_t size() const { return num_elements_; }
  bool empty() const { return num_elements_ == 0; }

  Timestamp time(size_t i) const { return times_data_[i]; }
  Flow flow(size_t i) const { return flows_data_[i]; }
  Interaction at(size_t i) const { return {times_data_[i], flows_data_[i]}; }

  const std::vector<Timestamp>& times() const { return *times_; }

  /// A copy of the flow values in element order.
  std::vector<Flow> flows() const {
    return std::vector<Flow>(flows_data_, flows_data_ + num_elements_);
  }

  /// The flow prefix sums: size() + 1 entries with
  /// prefix_sums()[i] = flow(0) + ... + flow(i - 1). Exposed so the
  /// replay arena (core/skeleton.h) can lay the ensemble's prefix arrays
  /// out flat without re-deriving them.
  const double* prefix_sums() const { return prefix_data_; }

  /// Sum of flows over the inclusive index range [i, j]; 0 if i > j.
  Flow FlowSum(size_t i, size_t j) const {
    if (i > j || j >= size()) return 0.0;
    return prefix_data_[j + 1] - prefix_data_[i];
  }

  /// Sum of flows over the half-open index range [first, limit); 0 when
  /// the range is empty. With first = LowerBound(lo) and
  /// limit = UpperBound(hi) this equals FlowInClosed(lo, hi) bit for bit
  /// — it is the O(1) `flow([tj,ti],k)` of Eq. 2 once the DP's window
  /// cursor has the bounds as indices. `limit` must be <= size().
  Flow FlowInIndexRange(size_t first, size_t limit) const {
    return first < limit ? prefix_data_[limit] - prefix_data_[first] : 0.0;
  }

  /// First index i >= from with time(i) >= t (== size() if none). A
  /// galloping advance: O(log gap) in the distance moved, so the
  /// sliding-window cursors pay O(1)-ish per window when consecutive
  /// windows overlap (the common case) yet never worse than a binary
  /// search when the first window of a match sits deep into the series.
  size_t AdvanceLowerBound(size_t from, Timestamp t) const;

  /// First index i >= from with time(i) > t (== size() if none).
  size_t AdvanceUpperBound(size_t from, Timestamp t) const;

  /// Total flow of the whole series.
  Flow TotalFlow() const { return prefix_data_[num_elements_]; }

  /// Index of the first element with time >= t (== size() if none).
  size_t LowerBound(Timestamp t) const;

  /// Index of the first element with time > t (== size() if none).
  size_t UpperBound(Timestamp t) const;

  /// Sum of flows of elements with lo < time <= hi (half-open window used
  /// by the enumerator's recursion) — 0 when the range is empty.
  Flow FlowInOpenClosed(Timestamp lo, Timestamp hi) const;

  /// Sum of flows of elements with lo <= time <= hi (closed window used by
  /// the DP module's Eq. 2).
  Flow FlowInClosed(Timestamp lo, Timestamp hi) const;

  /// True iff some element has lo < time <= hi.
  bool HasElementInOpenClosed(Timestamp lo, Timestamp hi) const;

  /// Replaces the flow values, copy-on-write: the series gets a fresh
  /// flow block, so copies sharing the old one (and the shared
  /// timestamps, and any views over them) are unaffected.
  /// `new_flows.size()` must equal size().
  void ReplaceFlows(const std::vector<Flow>& new_flows);

 private:
  /// Writes prefix[i] = flows[0] + ... + flows[i - 1] for i in [0, n]
  /// behind the n flows at the front of `block`, accumulating left to
  /// right (FlowPrefixArena in core/skeleton.h reproduces this order bit
  /// for bit).
  static void FillPrefix(double* block, size_t n);

  /// Re-derives the cached raw view (times_data_, num_elements_) from
  /// times_. Call after every assignment to times_.
  void SyncTimesView() {
    times_data_ = times_->data();
    num_elements_ = times_->size();
  }

  /// Installs `block` — size() flows followed by size() + 1 prefix
  /// sums — as this series' flow storage and re-derives the cached raw
  /// views into it. Call after SyncTimesView.
  void AdoptFlows(std::shared_ptr<const double[]> block) {
    flows_data_ = block.get();
    prefix_data_ = flows_data_ + num_elements_;
    flows_ = std::move(block);
  }

  // Cached raw views of *times_ and *flows_ so the hot paths (time(),
  // flow(), the prefix subtractions, the galloping cursors, the binary
  // searches) pay no shared_ptr double indirection — the shared storage
  // must not tax the recursion-bound workloads. Always kept in sync
  // with times_ and flows_.
  const Timestamp* times_data_ = nullptr;
  size_t num_elements_ = 0;
  const Flow* flows_data_ = nullptr;
  const double* prefix_data_ = nullptr;  // == flows_data_ + num_elements_
  // Immutable after construction; shared with copies and WithFlows views.
  std::shared_ptr<const std::vector<Timestamp>> times_;
  // The flow block. Its contents never change once adopted; shared
  // with copies, never with WithFlows views.
  std::shared_ptr<const double[]> flows_;
  // Epoch at which times_ was created; part of timestamp_identity().
  EpochId storage_epoch_ = 0;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_GRAPH_EDGE_SERIES_H_
