#ifndef FLOWMOTIF_STREAM_STREAMING_MONITOR_H_
#define FLOWMOTIF_STREAM_STREAMING_MONITOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/enumerator.h"
#include "core/motif.h"
#include "core/sliding_window.h"
#include "core/topk.h"
#include "graph/epoch_log.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "graph/types.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace flowmotif {

/// Configuration of one continuous motif query (StreamingMotifMonitor).
struct StreamOptions {
  /// Maximum time difference between any two interactions of an
  /// instance (Def. 3.1).
  Timestamp delta = 0;

  /// Minimum aggregated flow per motif edge; 0 disables flow pruning.
  /// Counts, top-k, and alerts are all over phi-passing instances.
  Flow phi = 0.0;

  /// Top-k size maintained live.
  int64_t k = 10;

  /// Sliding time horizon: LiveInstances() counts instances whose last
  /// interaction is younger than watermark - horizon. 0 = unbounded
  /// (live == total, and no expiry bookkeeping is kept).
  Timestamp horizon = 0;

  /// Fire an alert when an instance *settles* (its window can no longer
  /// change) with flow >= this bound. Default: no alerts.
  Flow alert_min_flow = std::numeric_limits<Flow>::infinity();
};

/// A continuous flow-motif query over an appending interaction stream:
/// owns an EpochLog, and on every SealEpoch incrementally maintains the
/// motif's instance count, top-k, and sliding-horizon live count —
/// byte-identical, at every epoch, to a batch run on the equivalently
/// built static graph.
///
/// The incremental decomposition rests on the stream's monotone-time
/// contract. Each structural match carries a persistent WindowScan. A
/// seal advances it to the stream watermark and runs a copy on to the
/// end, which splits the match's processed windows into a **settled**
/// prefix — final forever; enumerated exactly once, feeding the
/// cumulative count, the bounded settled top-k pool, the horizon ring
/// buffer, and exactly-once alerts — and a **hot** suffix that is
/// re-enumerated on each revisit. A seal revisits only the matches that
/// can have changed: those bound to a pair the seal appended to (via a
/// pair -> matches index), those whose earliest hot window fell behind
/// the new watermark (via a min-hot-end queue), and newly created
/// structural matches.
///
/// Topology-changing seals (new pairs or vertices) re-derive the match
/// list. P1's enumeration order is append-stable — origins in vertex
/// order, neighbors in CSR order, and inserting pairs/vertices never
/// reorders existing entries — so the old match list is an in-order
/// subsequence of the new one: a two-pointer diff keeps every existing
/// MatchState (and its scan position) and creates states only for the
/// genuinely new matches. Path motifs restrict the rescan to origin
/// work units from which a new pair is forward-reachable within
/// num_edges - 1 hops (reverse BFS); general motifs re-run P1 in full.
///
/// Single-threaded writer; not thread-safe.
class StreamingMotifMonitor {
 public:
  /// One settled instance that crossed alert_min_flow.
  struct Alert {
    EpochId epoch = 0;
    Flow flow = 0.0;
    Timestamp end_time = 0;
    MotifInstance instance;
  };
  using AlertCallback = std::function<void(const Alert&)>;

  /// Per-seal maintenance summary.
  struct EpochStats {
    EpochId epoch = 0;
    size_t num_appended = 0;
    size_t num_matches_total = 0;
    size_t num_matches_revisited = 0;
    size_t num_new_matches = 0;
    int64_t num_instances_settled = 0;
    int64_t num_alerts = 0;
    /// True when a topology change forced a full P1 re-run (general
    /// motifs); path motifs rescan only affected origin units.
    bool full_rescan = false;
    /// Lifecycle outcome of the seal (DESIGN.md Sec. 10). When not
    /// complete(), the seal stopped mid-revisit: the revisits already
    /// applied are final (RevisitMatch is per-match atomic) and the
    /// deferred ones are queued for the next seal, so aggregates lag
    /// the snapshot only on the deferred matches and catch up exactly
    /// once a later seal drains the queue.
    Termination termination;
    /// Revisits deferred to the next seal by a mid-seal stop.
    int64_t num_revisits_deferred = 0;
  };

  /// A monitor over an initially empty stream.
  StreamingMotifMonitor(const Motif& motif, const StreamOptions& options);

  /// A monitor whose epoch 0 is a static seed snapshot; the monitor
  /// state starts byte-identical to a batch run on the seed.
  StreamingMotifMonitor(const Motif& motif, const StreamOptions& options,
                        const InteractionGraph& seed);

  void SetAlertCallback(AlertCallback callback) {
    alert_callback_ = std::move(callback);
  }

  /// Buffers one edge. Ingest is an untrusted boundary: a malformed
  /// edge (negative ids, non-positive flow, or a timestamp violating
  /// the stream's monotone-time contract) is rejected with
  /// InvalidArgument and the monitor is unchanged — later well-formed
  /// appends still succeed.
  Status Append(VertexId src, VertexId dst, Timestamp t, Flow f) {
    return log_.Append(src, dst, t, f);
  }
  Status Append(const InteractionGraph::Edge& edge) {
    return log_.Append(edge);
  }

  /// Seals the buffered edges into a new epoch and brings every live
  /// aggregate up to date with the new snapshot. Arms a QueryControl
  /// only when a failpoint is armed (MakeQueryControl), so the normal
  /// path is unchanged.
  EpochStats SealEpoch();

  /// SealEpoch under an optional lifecycle control (may be null).
  /// Checked once per match revisit (site "stream.revisit"); on stop
  /// the remaining revisits are deferred — queued and merged into the
  /// next seal's revisit set (an empty-tail seal with a non-empty
  /// queue still runs, revisit-only). Each applied revisit is atomic,
  /// so a truncated seal followed by a clean drain leaves state
  /// byte-identical to a never-truncated run.
  EpochStats SealEpoch(QueryControl* control);

  /// Cumulative number of phi-passing instances on the current snapshot
  /// — equals a batch kCount run on the equivalently built static graph.
  int64_t TotalInstances() const { return settled_instances_ + hot_instances_; }

  /// Instances whose last interaction lies within the sliding horizon
  /// (EndTime > watermark - horizon); TotalInstances() when horizon = 0.
  int64_t LiveInstances() const;

  /// The k highest-flow instances on the current snapshot, ordered by
  /// (flow descending, discovery rank ascending) — with phi = 0, equals
  /// a batch kTopK run on the equivalently built static graph.
  std::vector<TopKEntry> TopK() const;

  EpochId epoch() const { return log_.epoch(); }
  Timestamp watermark() const { return log_.watermark(); }
  std::shared_ptr<const TimeSeriesGraph> Snapshot() const {
    return snapshot_;
  }
  size_t num_matches() const { return matches_.size(); }
  const StreamOptions& options() const { return options_; }

 private:
  /// One enumerated instance of a hot (not yet settled) window, kept
  /// materialized so top-k/horizon queries need no re-enumeration.
  struct HotInstance {
    Flow flow;
    Timestamp end;
    int64_t emit_index;
    MotifInstance instance;
  };

  /// Persistent per-structural-match streaming state.
  struct MatchState {
    MatchBinding binding;
    WindowScan scan;
    std::vector<Window> hot_windows;  // recomputed on revisit
    int64_t settled_emits = 0;  // emissions settled so far (= next index)
    std::vector<HotInstance> hot;
  };

  /// Entry of the bounded settled top-k pool. A settled instance
  /// displaced by k better settled instances can never re-enter any
  /// future top-k: its comparands are permanent, and discovery-rank
  /// comparisons are stable because topology growth never reorders
  /// existing matches.
  struct SettledEntry {
    Flow flow;
    size_t match_id;
    int64_t emit_index;
    Timestamp end;
    MotifInstance instance;
  };

  /// One sealed epoch's settled instance end-times — the ring-buffer
  /// horizon: segments are popped whole once max_end ages out, live
  /// counts binary-search the survivors.
  struct HorizonSegment {
    Timestamp max_end;
    std::vector<Timestamp> ends;  // sorted
  };

  static int64_t PairKey(VertexId src, VertexId dst) {
    return (static_cast<int64_t>(src) << 32) |
           static_cast<int64_t>(static_cast<uint32_t>(dst));
  }

  void InitializeFromSnapshot();
  size_t CreateMatch(const MatchBinding& b);
  void RebuildCanonicalPos();
  VertexId OriginOf(size_t id) const {
    return matches_[id].binding[static_cast<size_t>(motif_.path().front())];
  }
  void RefreshMatchesFull(const TimeSeriesGraph& graph,
                          std::vector<size_t>* new_ids);
  void RefreshMatchesPath(const TimeSeriesGraph& graph,
                          const EpochLog::SealInfo& info,
                          std::vector<size_t>* new_ids);
  void RevisitMatch(size_t id, const FlowMotifEnumerator& enumerator,
                    Timestamp settle_before, EpochId epoch, EpochStats* stats,
                    std::vector<Timestamp>* new_settled_ends);
  /// (flow desc, discovery rank asc) under current canonical positions.
  bool EntryOutranks(Flow a_flow, size_t a_match, int64_t a_emit, Flow b_flow,
                     size_t b_match, int64_t b_emit) const;
  void OfferSettled(Flow flow, size_t match_id, int64_t emit_index,
                    Timestamp end, const InstanceView& view);
  /// watermark - horizon (horizon > 0): an instance is live while its
  /// EndTime exceeds this. Empty while it lies below the Timestamp
  /// minimum, where no instance has aged out.
  std::optional<Timestamp> HorizonCutoff() const;

  Motif motif_;
  StreamOptions options_;
  AlertCallback alert_callback_;
  EpochLog log_;
  std::shared_ptr<const TimeSeriesGraph> snapshot_;

  std::vector<MatchState> matches_;          // id = index, append-only
  std::vector<size_t> canonical_ids_;        // ids in P1 order
  std::vector<size_t> canonical_pos_;        // id -> P1 position
  std::unordered_map<int64_t, std::vector<size_t>> matches_by_pair_;
  std::set<std::pair<Timestamp, size_t>> hot_queue_;  // (min hot end, id)

  int64_t settled_instances_ = 0;
  int64_t hot_instances_ = 0;
  std::vector<SettledEntry> settled_topk_;  // <= k best settled
  std::deque<HorizonSegment> horizon_;

  std::vector<Window> settled_windows_scratch_;
  // The enumeration frame every revisit rebinds (the monitor is
  // single-threaded).
  FlowMotifEnumerator::Scratch enumeration_scratch_;
  EnumerationResult enum_stats_;  // cumulative enumeration counters

  /// Match ids whose revisit a stopped seal deferred; drained (merged
  /// into the revisit set) by the next seal. Ids stay valid across
  /// seals because matches_ is append-only.
  std::vector<size_t> pending_revisit_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_STREAM_STREAMING_MONITOR_H_
