#ifndef FLOWMOTIF_CORE_SKELETON_H_
#define FLOWMOTIF_CORE_SKELETON_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/match_list.h"
#include "core/motif.h"
#include "core/structural_match.h"
#include "graph/time_series_graph.h"
#include "util/cancellation.h"
#include "util/random.h"

namespace flowmotif {

class ThreadPool;

/// Record-once / replay-many enumeration skeletons.
///
/// The flow-permuted graphs of the significance ensemble (Sec. 6.3)
/// share every timestamp-derived artifact with the real graph —
/// structural matches, window lists, cursor slides, domination probes,
/// and the *shape* of the Algorithm 1 recursion. Only the flow values
/// differ, and every flow the recursion ever consults is an Eq. 2
/// prefix-sum subtraction over a contiguous index range. So the
/// enumeration can be split:
///
///   1. Record (once, on the real graph): run the timestamp-only
///      recursion and emit a flat trace — a DAG of suffix states whose
///      edges carry (lo, hi, child) with lo/hi absolute indices into a
///      flat concatenation of per-series prefix-sum arrays.
///   2. Replay (once per flow assignment): evaluate every edge flow as
///      prefix[hi] - prefix[lo] and run a linear DP over the DAG
///      (core/skeleton_kernel.h) — dense array passes, no recursion,
///      no searches.
///
/// The DAG is the counting recursion's memo structure made explicit:
/// within one (match, window), the set of valid suffix completions
/// depends only on (level, first admissible index), so states are
/// keyed on that pair and shared across all prefixes reaching them.
/// Replay therefore costs O(trace edges), and the trace is the size of
/// the *memoized* recursion at phi = 0, exponentially smaller than the
/// leaf tree it summarizes.
///
/// A skeleton records no flow values and no phi: one recording answers
/// any flow assignment over the same timestamp storage (the whole
/// permutation ensemble) and any phi threshold (a parameter sweep).

/// A flat concatenation of per-series flow prefix-sum arrays in pair
/// order: pair p's block holds its series' n_p + 1 prefix entries, so
/// any Eq. 2 range flow is a subtraction of two entries of one array.
/// The layout depends only on the topology (series lengths in pair
/// order), so every graph of a flow-permutation ensemble fills the
/// same offsets and a recorded skeleton's absolute indices are valid
/// for all of them.
class FlowPrefixArena {
 public:
  /// Copies `graph`'s per-series prefix arrays into the arena
  /// (allocating the layout on first use). Subsequent fills must come
  /// from graphs sharing the same topology identity.
  void FillFromGraph(const TimeSeriesGraph& graph);

  /// Rebuilds the prefix data from a flat pair-order flow vector (one
  /// entry per interaction, as produced by FlowPermutationStream) —
  /// the replay path's substitute for constructing a permutation view.
  /// The accumulation order matches EdgeSeries::FillPrefix, so the
  /// arena is bit-identical to the prefix arrays a WithPermutedFlows
  /// view carrying the same flows would own. `layout_graph` provides
  /// the topology; `flows` must have one entry per interaction.
  void FillFromFlows(const TimeSeriesGraph& layout_graph,
                     const std::vector<Flow>& flows);

  const double* data() const { return prefix_.data(); }
  size_t size() const { return prefix_.size(); }
  StorageIdentity topology_identity() const { return topology_identity_; }

  /// Offset of pair p's prefix block; the block has series-size + 1
  /// entries. Exposed for tests.
  size_t block_offset(size_t pair_index) const {
    return offsets_[pair_index];
  }

 private:
  void EnsureLayout(const TimeSeriesGraph& graph);

  std::vector<double> prefix_;
  std::vector<size_t> offsets_;  // per pair, block start; back() = total
  StorageIdentity topology_identity_;
};

/// Draws the significance ensemble's flow permutations directly as
/// flat pair-order flow vectors, consuming the RNG stream exactly as
/// TimeSeriesGraph::WithPermutedFlows does (collect the real flows in
/// pair order, Fisher-Yates shuffle). Permutation i is therefore
/// bit-identical to the flows view i of the PR 5 path would carry —
/// but producing it costs one shuffle, not a graph view with
/// re-derived per-series prefix arrays.
class FlowPermutationStream {
 public:
  FlowPermutationStream(const TimeSeriesGraph& graph, uint64_t seed);

  /// Writes the next permutation of the real graph's flow multiset
  /// into `*flows` (pair order, one entry per interaction).
  void NextPermutationInto(std::vector<Flow>* flows);

 private:
  std::vector<Flow> original_;  // the real graph's flows, pair order
  // Per-bound rejection thresholds of Rng::NextBounded, precomputed so
  // each draw's Fisher-Yates pass is division-light (see .cc).
  std::vector<uint64_t> thresholds_;
  Rng rng_;
};

/// The recorded timestamp-only trace of one (motif, delta) enumeration
/// over a set of structural matches. See the file comment for the
/// representation; storage is struct-of-arrays:
///
///   edge_lo_/edge_hi_  per edge, absolute prefix-arena indices of the
///                      slice's flow = prefix[hi] - prefix[lo]
///   edge_child_        per edge, the suffix state the slice leads to
///   state_begin_       CSR offsets; state 0 is the synthetic unit
///                      state (value 1, no edges), and states are
///                      appended post-order so child < parent always
///   roots_             one state per (match, window) with any viable
///                      completion; the replayed count is the sum of
///                      root values
class EnumerationSkeleton {
 public:
  /// Default trace budget (edges). A recorded edge is 12 bytes plus an
  /// 8-byte flow slot during phi sweeps; the default caps the trace at
  /// ~100 MB of replay state, far above the paper-scale workloads,
  /// while bounding the blowup on adversarial inputs.
  static constexpr size_t kDefaultMaxEdges = size_t{1} << 23;

  struct Options {
    size_t max_edges = kDefaultMaxEdges;
  };

  /// Records the skeleton of enumerating `motif` at `delta` over
  /// `matches` on `graph` — the one-delta call of RecordSweepDescending,
  /// so it reads the same window lists, charges `control` the same way,
  /// checks "sweep.record" per match and records the match ranges on
  /// `pool` (null: one range on the calling thread). Returns false —
  /// leaving the skeleton unrecorded — when the trace would exceed
  /// options.max_edges, the prefix arena would overflow 32-bit indices,
  /// or `control` stopped the recording; callers then fall back to
  /// ordinary per-graph enumeration. Recording consults no flow values,
  /// so a false return happens before any flow-dependent work.
  bool Record(const TimeSeriesGraph& graph, const Motif& motif,
              Timestamp delta, const MatchList& matches,
              QueryControl* control, const Options& options,
              ThreadPool* pool);
  /// The same over owned bindings, flattened once, on the calling
  /// thread.
  bool Record(const TimeSeriesGraph& graph, const Motif& motif,
              Timestamp delta, const std::vector<MatchBinding>& matches,
              QueryControl* control, const Options& options);
  /// The same with the default options.
  bool Record(const TimeSeriesGraph& graph, const Motif& motif,
              Timestamp delta, const std::vector<MatchBinding>& matches,
              QueryControl* control = nullptr) {
    return Record(graph, motif, delta, matches, control, Options());
  }

  /// Records one skeleton per entry of `deltas` (which must be
  /// non-increasing) in a SINGLE pass over `matches` — the one recorder:
  /// QueryEngine::RunSweep calls it with its delta grid, and Record
  /// with one delta. Two things make a grid cheaper than one recording
  /// per delta:
  ///
  ///  * shared per-match work: series resolution, arena offsets, and
  ///    the window scan (ComputeProcessedWindowsMulti walks the match's
  ///    two boundary series once for the whole grid) are paid per
  ///    match, not per (match, delta), and every delta's recursion runs
  ///    while the match's series are cache-hot;
  ///  * cascaded viability: within a match, deltas are visited largest
  ///    first, and a delta that yields no roots (no phi = 0 completion)
  ///    proves the match dead for every remaining smaller delta — so
  ///    the grid's tail skips the bulk of the match list on workloads
  ///    where most structural matches never produce an instance.
  ///
  /// Per-delta trace budgets apply independently: a delta whose trace
  /// would exceed options.max_edges is abandoned (its skeleton reports
  /// recorded() == false; callers fall back for that delta only) and is
  /// excluded from the viability cascade, without disturbing the other
  /// deltas. `skeletons` is resized to deltas.size(), index-aligned.
  /// `control` (optional) adds a cooperative cancellation point per
  /// match scanned (site "sweep.record") and is charged at
  /// "cache.windows" for every window list the scan computes. A stop
  /// aborts the whole recording: every skeleton reports recorded() ==
  /// false — a half-recorded trace would replay wrong counts, so there
  /// is no partial recording, only a clean fallback.
  ///
  /// `pool` (optional) records the match list as PartitionIndexSpace
  /// ranges, one pool task each; without a pool, or at one thread, the
  /// list is one range on the calling thread. Each range records into
  /// its own per-delta fragments, and the calling thread appends them
  /// in range order as the ranges end, which yields exactly the
  /// one-range recording: the same trace bytes, viability, budget
  /// abandonment, window charges and stops at every pool size
  /// (DESIGN.md Sec. 7, "One recorder").
  static void RecordSweepDescending(
      const TimeSeriesGraph& graph, const Motif& motif,
      const std::vector<Timestamp>& deltas, const MatchList& matches,
      const Options& options,
      std::vector<EnumerationSkeleton>* skeletons,
      QueryControl* control = nullptr, ThreadPool* pool = nullptr);

  bool recorded() const { return recorded_; }
  size_t num_edges() const { return edge_lo_.size(); }
  /// Total states including the synthetic unit state 0.
  size_t num_states() const { return state_begin_.size() - 1; }
  size_t num_roots() const { return roots_.size(); }

  /// Identity of the topology the recording is valid for; a replay
  /// arena must report the same identity.
  StorageIdentity topology_identity() const { return topology_identity_; }

  const uint32_t* edge_lo() const { return edge_lo_.data(); }
  const uint32_t* edge_hi() const { return edge_hi_.data(); }
  const uint32_t* edge_child() const { return edge_child_.data(); }
  const uint32_t* state_begin() const { return state_begin_.data(); }
  const uint32_t* roots() const { return roots_.data(); }

  /// Per recorded match (aligned with the `matches` argument), whether
  /// the match contributed any root — i.e. has at least one
  /// structurally viable completion at this delta with phi = 0.
  /// Because shrinking delta and raising phi only remove instances, a
  /// non-viable match counts zero for EVERY delta' <= delta and every
  /// phi — the delta-monotonicity filter RunSweep uses to skip dead
  /// matches when recording the smaller deltas of a grid.
  const std::vector<uint8_t>& match_viability() const {
    return match_viable_;
  }

 private:
  struct Recorder;

  void Clear();

  std::vector<uint32_t> edge_lo_;
  std::vector<uint32_t> edge_hi_;
  std::vector<uint32_t> edge_child_;
  std::vector<uint32_t> state_begin_{0, 0};  // state 0 = unit, no edges
  std::vector<uint32_t> roots_;
  std::vector<uint8_t> match_viable_;
  StorageIdentity topology_identity_;
  bool recorded_ = false;
};

/// Replays a recorded skeleton against flow assignments. Owns the DP
/// value buffer (and the edge-flow buffer for phi sweeps), so one
/// replayer per thread; the skeleton itself is immutable and shared.
class SkeletonReplayer {
 public:
  /// `skeleton` must outlive the replayer and be recorded.
  explicit SkeletonReplayer(const EnumerationSkeleton* skeleton);

  /// Instance count of the recorded (motif, delta) enumeration under
  /// `arena`'s flow assignment at threshold `phi` — one fused pass,
  /// byte-identical to enumerating the corresponding graph.
  int64_t Count(const FlowPrefixArena& arena, Flow phi);

  /// Phi-sweep split: evaluate every recorded slice flow once, then
  /// answer any number of thresholds against the cached flows.
  void EvaluateFlows(const FlowPrefixArena& arena);
  int64_t CountWithFlows(Flow phi);

 private:
  const EnumerationSkeleton* skeleton_;
  std::vector<double> flows_;    // per recorded edge, EvaluateFlows only
  std::vector<int64_t> values_;  // per state, DP scratch
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_SKELETON_H_
