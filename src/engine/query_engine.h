#ifndef FLOWMOTIF_ENGINE_QUERY_ENGINE_H_
#define FLOWMOTIF_ENGINE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dp.h"
#include "core/enumerator.h"
#include "core/instance.h"
#include "core/motif.h"
#include "core/significance.h"
#include "core/structural_match.h"
#include "core/topk.h"
#include "engine/query_options.h"
#include "graph/time_series_graph.h"
#include "stream/streaming_monitor.h"
#include "util/thread_pool.h"

namespace flowmotif {

/// Unified result of a QueryEngine run. `stats` carries the enumeration
/// counters every mode reports (instances, matches, windows, prunes);
/// the mode-specific payload lives in the field named after the mode.
struct QueryResult {
  QueryMode mode = QueryMode::kEnumerate;

  /// Unified counters. phase1_seconds is the wall time of the P1 scan
  /// before P2 on every path (0 for RunOnMatches, and 0 when the match
  /// list came from QueryOptions::match_list_cache); phase2_seconds sums
  /// the folded P2 batches, so at one thread it is P2's wall time and
  /// the two never exceed wall_seconds, while at more threads it is a
  /// CPU-like sum across workers. wall_seconds below is always the
  /// end-to-end time. In kTopK mode num_instances is the
  /// number of returned entries (== topk.size()) and num_phi_prunes is
  /// 0: the floating threshold makes the raw survivor/prune counts
  /// depend on how fast it tightened, so that execution-dependent
  /// activity is quarantined in num_pruning_probes and every other stat
  /// is deterministic at any thread count — under a hard stop, exact
  /// over the canonical match prefix. num_batches and num_pruning_probes
  /// may differ across thread counts and batch sizes (batch boundaries
  /// are an execution detail).
  EnumerationResult stats;

  /// kCount: memoization hits of the counting recursion.
  int64_t memo_hits = 0;

  /// kEnumerate: up to QueryOptions::collect_limit materialized
  /// instances, in serial discovery order for every thread count.
  std::vector<MotifInstance> instances;

  /// kTopK: entries sorted by decreasing flow, discovery order breaking
  /// ties. Byte-identical for every thread count.
  std::vector<TopKEntry> topk;

  /// kTop1: the DP searcher's best instance (earliest structural match
  /// wins flow ties, as in the serial searcher).
  MaxFlowDpSearcher::Result top1;

  /// kSignificance: the per-motif report.
  SignificanceAnalyzer::MotifReport significance;

  /// Execution footprint; threads_used is the num_threads() of the
  /// run's pool, its own or the borrowed QueryOptions::pool.
  int threads_used = 1;
  int64_t num_batches = 0;
  double wall_seconds = 0.0;

  /// Lifecycle outcome (DESIGN.md Sec. 10). When not complete(), the
  /// payload covers exactly the first `termination.work_completed`
  /// structural matches in canonical (serial discovery) order — a
  /// deterministic prefix for a given stop point, never a torn merge —
  /// except after kError (a worker task threw, or the options failed
  /// validation), where partial results are best-effort.
  Termination termination;
};

/// Result of QueryEngine::RunSweep: one instance count per cell of the
/// SweepQuery grid, row-major over (delta, phi). Cell (d, p) holds
/// exactly the num_instances a kCount Run at (deltas[d], phis[p]) would
/// report — the sweep equivalence tests lock this in.
struct SweepResult {
  std::vector<Timestamp> deltas;
  std::vector<Flow> phis;
  std::vector<int64_t> counts;  // counts[d * phis.size() + p]

  int64_t count(size_t d, size_t p) const {
    return counts[d * phis.size() + p];
  }

  /// Execution footprint: matches are computed once for the grid;
  /// each delta is either answered by one recording + |phis| replays
  /// (num_replayed_deltas) or by per-cell memoized counting
  /// (num_fallback_cells).
  int64_t num_structural_matches = 0;
  int64_t num_replayed_deltas = 0;
  int64_t num_fallback_cells = 0;
  int threads_used = 1;
  double wall_seconds = 0.0;

  /// Lifecycle outcome. When not complete(), only cells with
  /// cell_valid[i] != 0 were computed (work_completed counts them);
  /// the other counts entries are meaningless zeros. A budget-truncated
  /// match list (WorkBudget::max_matches) marks cells valid over that
  /// match prefix and reports kBudgetExceeded.
  Termination termination;
  std::vector<uint8_t> cell_valid;  // aligned with counts; 1 = computed
};

/// The single entry point for flow motif queries: one facade over the
/// four paper query modes (threshold enumeration, top-k, top-1 DP,
/// significance) plus construction-free counting, configured by one
/// QueryOptions struct.
///
/// Execution is the paper's two-phase algorithm, parallel in both
/// phases. Every run first has one flat MatchList: the caller's
/// (RunOnMatches, RunSweep's fallback cells), a
/// QueryOptions::match_list_cache hit, or one pooled P1 scan
/// (FindMatchesControlled over StructuralMatcher work units). Then
/// every P2 mode runs that list through one executor
/// (engine/executor.h): a batch kernel over contiguous match ranges
/// plus a fold that merges batch outputs in serial match order. Every
/// batch fills local state (an EnumerationResult, a bounded top-k
/// collector, a DP incumbent) that is folded deterministically, so
/// results are byte-identical across thread counts — the
/// parallel-vs-serial equivalence property test locks this in.
///
/// Thread-compatible: one engine may serve concurrent Run calls, since
/// all mutable state is per-call. The engine itself is a stateless
/// view over the graph reference and so is cheap to construct — the
/// serving layer (DESIGN.md Sec. 11) builds one per admitted request
/// on the stack, bound to the epoch snapshot captured at admission, so
/// queries keep running against their snapshot while SealEpoch
/// publishes new ones. Each P2 batch keeps one WindowReader, which
/// computes and charges every match's window list where the batch reads
/// it (served and solo runs alike).
class QueryEngine {
 public:
  explicit QueryEngine(const TimeSeriesGraph& graph) : graph_(graph) {}
  // The engine keeps a reference to the graph: temporaries would dangle.
  explicit QueryEngine(TimeSeriesGraph&&) = delete;

  /// Full two-phase run of the selected mode.
  QueryResult Run(const Motif& motif, const QueryOptions& options) const;

  /// Phase P2 only, over externally computed structural matches (used
  /// by benchmarks that isolate P2), converted to a MatchList once on
  /// entry. Not available for kSignificance, which owns its match reuse
  /// internally.
  QueryResult RunOnMatches(const Motif& motif,
                           const std::vector<MatchBinding>& matches,
                           const QueryOptions& options) const;

  /// Evaluates a whole delta x phi count grid in one pass (Fig. 9/10
  /// curves): phase P1 once, one skeleton recording per delta, one
  /// replay per phi — instead of one full two-phase query per cell.
  /// Cells equal per-point kCount runs byte-for-byte. QueryOptions
  /// supplies execution knobs (num_threads or pool, skeleton_replay,
  /// batch_size); its mode/delta/phi fields are ignored.
  SweepResult RunSweep(const Motif& motif, const SweepQuery& sweep,
                       const QueryOptions& options) const;

  /// Opens a continuous query seeded with this engine's graph: a
  /// StreamingMotifMonitor (stream/streaming_monitor.h) whose epoch 0
  /// answers exactly as this engine would, and which stays batch-
  /// equivalent at every later SealEpoch. The monitor owns an
  /// independent EpochLog built from a copy of the graph's interactions;
  /// it does not alias the engine's graph, so the engine and the stream
  /// may be used (and dropped) independently.
  std::unique_ptr<StreamingMotifMonitor> OpenStream(
      const Motif& motif, const StreamOptions& options) const;

  const TimeSeriesGraph& graph() const { return graph_; }

 private:
  /// Runs one P2 mode (kEnumerate, kCount, kTopK or kTop1) through the
  /// executor (engine/executor.h) over `list`; when `list` is null,
  /// over the list QueryOptions::match_list_cache holds, else over the
  /// list one P1 scan on `pool` makes.
  void RunMode(const Motif& motif, const MatchList* list,
               const QueryOptions& options, ThreadPool* pool,
               QueryControl* control, QueryResult* result) const;
  void RunSignificance(const Motif& motif, const QueryOptions& options,
                       ThreadPool* pool, QueryControl* control,
                       QueryResult* result) const;

  const TimeSeriesGraph& graph_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_ENGINE_QUERY_ENGINE_H_
