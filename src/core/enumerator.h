#ifndef FLOWMOTIF_CORE_ENUMERATOR_H_
#define FLOWMOTIF_CORE_ENUMERATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/instance.h"
#include "core/match_list.h"
#include "core/motif.h"
#include "core/sliding_window.h"
#include "core/structural_match.h"
#include "core/window_cursor.h"
#include "graph/time_series_graph.h"

namespace flowmotif {

/// Parameters of a flow motif query: the delta / phi thresholds of
/// Def. 3.1 plus execution options.
struct EnumerationOptions {
  /// Maximum time difference between any two interactions of an instance.
  Timestamp delta = 0;

  /// Minimum aggregated flow per motif edge. 0 disables flow pruning.
  Flow phi = 0.0;

  /// When set, instances additionally need flow strictly greater than the
  /// returned value; re-evaluated on every check. This is the "floating
  /// threshold" hook used by top-k search (Sec. 5): the k-th best flow so
  /// far replaces phi. In parallel runs the callback is invoked from
  /// every worker concurrently — back it with SharedFlowThreshold
  /// (core/topk.h), whose atomic k-th-best load is safe and whose bound
  /// keeps parallel results byte-identical to serial.
  std::function<Flow()> dynamic_min_flow_exclusive;

  /// Paper-faithful enumeration can, in rare cross-window configurations,
  /// emit an instance that a strictly earlier window could extend (see
  /// DESIGN.md Sec. 4). Setting this applies a Def. 3.3 post-filter so
  /// only exactly-maximal instances are reported.
  bool strict_maximality = false;

  /// Ablation switch: disables the early phi check of Algorithm 1 line
  /// 16; partial prefixes below phi are still expanded and the flow
  /// constraint is enforced only on complete instances. Results are
  /// unchanged; only work grows. Used by bench_ablation.
  bool ablation_no_prefix_phi_pruning = false;

  /// Ablation switch: processes a window at *every* e1 anchor instead of
  /// skipping positions without new e_m elements. The extra windows can
  /// only regenerate non-maximal/duplicate instances, which are counted
  /// separately in EnumerationResult::num_redundant_instances. Used by
  /// bench_ablation.
  bool ablation_no_window_skip = false;

  /// Lifecycle control (non-owning, may be null) that NewReader's
  /// readers bill for every window list a match reads, at site
  /// "cache.windows", so WorkBudget's window cap holds for every motif
  /// shape.
  QueryControl* query_control = nullptr;
};

/// A contiguous run [begin, end) of one edge's interaction series — the
/// edge-set assigned to one motif edge by an instance.
struct EdgeSlice {
  const EdgeSeries* series = nullptr;
  size_t begin = 0;
  size_t end = 0;  // exclusive

  size_t size() const { return end - begin; }

  /// Aggregated flow of the slice; 0 for an empty slice. The explicit
  /// guard matters: `end - 1` would wrap for `begin == end == 0` and only
  /// accidentally hit EdgeSeries::FlowSum's out-of-range check.
  Flow FlowSum() const {
    return begin < end ? series->FlowSum(begin, end - 1) : 0.0;
  }
};

/// A zero-copy view of one enumerated instance, valid only during the
/// visitor call. Call Materialize() to keep it.
struct InstanceView {
  const Motif* motif = nullptr;
  MatchRef binding{nullptr, 0};
  const std::vector<EdgeSlice>* slices = nullptr;
  Window window{0, 0};
  Flow flow = 0.0;  // f(GI), Eq. 1

  /// Copies the view into an owning MotifInstance.
  MotifInstance Materialize() const;
};

/// Visitor invoked once per instance; return false to stop enumeration.
using InstanceVisitor = std::function<bool(const InstanceView&)>;

/// Counters and timings reported by a run.
struct EnumerationResult {
  int64_t num_instances = 0;
  int64_t num_structural_matches = 0;
  int64_t num_windows_processed = 0;
  int64_t num_phi_prunes = 0;         // prefixes cut by the flow bound
  /// kTopK only (0 elsewhere): emissions that survived the floating
  /// threshold during the run, plus the phi/threshold prunes. This is
  /// the one execution-dependent counter of the mode — how fast the
  /// threshold tightened depends on batch layout and thread count — so
  /// QueryEngine quarantines it here and keeps num_instances /
  /// num_phi_prunes exact (the returned entries / 0). Comparable only
  /// between identical execution configurations, like num_batches.
  int64_t num_pruning_probes = 0;
  int64_t num_domination_skips = 0;   // prefixes cut as non-maximal
  int64_t num_strict_rejects = 0;     // strict-mode Def. 3.3 rejections
  int64_t num_redundant_instances = 0;  // only with ablation_no_window_skip
  double phase1_seconds = 0.0;        // structural matching
  double phase2_seconds = 0.0;        // window/instance enumeration

  double total_seconds() const { return phase1_seconds + phase2_seconds; }

  /// Accumulates another run's counters — the reduction step of the
  /// engine's parallel execution path, where each worker fills a local
  /// result. All counters are sums, so merging per-batch results in
  /// batch order reproduces the serial counters exactly. The two phase
  /// timers also sum: in a parallel run they report aggregate CPU
  /// seconds across workers, not wall time (QueryResult::wall_seconds
  /// carries the latter).
  void MergeFrom(const EnumerationResult& other) {
    num_instances += other.num_instances;
    num_structural_matches += other.num_structural_matches;
    num_windows_processed += other.num_windows_processed;
    num_phi_prunes += other.num_phi_prunes;
    num_pruning_probes += other.num_pruning_probes;
    num_domination_skips += other.num_domination_skips;
    num_strict_rejects += other.num_strict_rejects;
    num_redundant_instances += other.num_redundant_instances;
    phase1_seconds += other.phase1_seconds;
    phase2_seconds += other.phase2_seconds;
  }
};

/// The paper's two-phase flow motif enumeration algorithm (Sec. 4):
/// phase P1 finds structural matches, phase P2 slides a delta-length
/// window over each match's interactions and recursively enumerates the
/// maximal instances (Algorithm 1), pruning by phi.
///
/// Thread-compatible: one enumerator may be shared by concurrent Run
/// calls since all state is per-call.
class FlowMotifEnumerator {
 public:
  FlowMotifEnumerator(const TimeSeriesGraph& graph, const Motif& motif,
                      const EnumerationOptions& options);
  // The enumerator keeps a reference to the graph: temporaries would
  // dangle.
  FlowMotifEnumerator(TimeSeriesGraph&&, const Motif&,
                      const EnumerationOptions&) = delete;

  /// Full two-phase run. `visitor` may be null to count only.
  EnumerationResult Run(const InstanceVisitor& visitor = nullptr) const;

  /// Phase P2 only, over the given (externally computed) matches. Used by
  /// benchmarks that isolate P2 and by the significance analyzer, which
  /// reuses the real graph's matches on flow-permuted graphs.
  EnumerationResult RunOnMatches(const std::vector<MatchBinding>& matches,
                                 const InstanceVisitor& visitor = nullptr)
      const;

  /// Phase P2 for a single structural match, accumulating into `result`.
  /// Returns false if the visitor requested a stop. The match's window
  /// list is computed by `windows` — a reader a caller looping over
  /// matches keeps across them (NewReader) — or, when null, by a reader
  /// made for this one match.
  bool EnumerateMatch(MatchRef binding, const InstanceVisitor& visitor,
                      EnumerationResult* result,
                      WindowReader* windows = nullptr) const;

  /// A window reader at options().delta, charging
  /// options().query_control. One per thread.
  WindowReader NewReader() const;

  /// Phase P2 for a single match over an explicit window span instead of
  /// the match's own processed-window list. The windows must be (a
  /// contiguous run of) processed windows of this match in list order —
  /// the streaming monitor feeds the settled/hot spans of its per-match
  /// WindowScan, whose concatenation is exactly the batch
  /// list, so instances come out byte-identical to EnumerateMatch across
  /// the whole sequence of calls. Returns false on visitor stop.
  bool EnumerateMatchWindows(MatchRef binding, const Window* windows_begin,
                             const Window* windows_end,
                             const InstanceVisitor& visitor,
                             EnumerationResult* result) const;

  /// Convenience: runs and materializes every instance.
  std::vector<MotifInstance> CollectAll() const;

  const Motif& motif() const { return motif_; }
  const EnumerationOptions& options() const { return options_; }

 private:
  struct Context;

  /// The one window sweep of EnumerateMatch and EnumerateMatchWindows:
  /// runs Algorithm 1 in every window of [begin, end) for the match
  /// `ctx` was set up for. With `processed` set (the no-window-skip
  /// ablation) it flags windows the skip rule would have dropped.
  bool SweepWindows(Context* ctx, const Window* begin, const Window* end,
                    const std::vector<Window>* processed) const;
  void Recurse(Context* ctx, int level, Timestamp lo) const;
  bool PassesFlowBound(Flow flow) const;
  void Emit(Context* ctx, Flow instance_flow) const;

  const TimeSeriesGraph& graph_;
  const Motif motif_;
  const EnumerationOptions options_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_ENUMERATOR_H_
