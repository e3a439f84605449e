#ifndef FLOWMOTIF_CORE_SIGNIFICANCE_H_
#define FLOWMOTIF_CORE_SIGNIFICANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/match_list.h"
#include "core/motif.h"
#include "core/skeleton.h"
#include "graph/time_series_graph.h"
#include "util/cancellation.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace flowmotif {

/// Motif significance analysis (Sec. 6.3, Fig. 14). Randomized versions
/// of the input graph are generated by permuting the multiset of flow
/// values over all interactions while keeping the structure and the
/// timestamps fixed. The number of flow motif instances is counted on the
/// real graph and on each randomized graph; a motif is significant when
/// the real count exceeds the randomized counts by many standard
/// deviations (z-score) with a low empirical p-value.
///
/// Because only flows are randomized, everything timestamp-derived is
/// shared across the whole ensemble. Each motif pays one structural
/// match scan (the flat P1 scan of core/structural_match.h) and, by
/// default (Options::skeleton_replay), one recording of its
/// timestamp-only enumeration as a flat skeleton trace
/// (core/skeleton.h). Then ONE streamed pass counts every motif on every
/// graph: task 0 is the real graph, task i draws permutation i from the
/// seeded FlowPermutationStream, fills one flow prefix arena and replays
/// every recorded skeleton against it as a dense kernel pass. Motifs
/// whose recording was bypassed (or every motif, with replay off) are
/// enumerated instead on a flow view built from the same draw
/// (TimeSeriesGraph::WithFlows), each match computing its window list as
/// every other path does. Tasks run in pool-width
/// waves, so at most one wave of permutations is resident; the ensemble
/// itself is never materialized.
class SignificanceAnalyzer {
 public:
  struct Options {
    /// Number of randomized graphs (the paper uses 20).
    int num_random_graphs = 20;

    /// Seed for the flow permutations; the analysis is deterministic
    /// given the seed.
    uint64_t seed = 1;

    /// The delta / phi query parameters.
    Timestamp delta = 0;
    Flow phi = 0.0;

    /// Optional worker pool (not owned). When set, each motif's
    /// recording runs over match ranges on it and the ensemble tasks of
    /// each wave run as parallel tasks. Permutations are always drawn
    /// serially from the single seeded stream, so permutation i is the
    /// same for every pool size (and for the serial run) and the report
    /// is byte-identical for any thread count.
    ThreadPool* pool = nullptr;

    /// Record-once / replay-many (core/skeleton.h): record each
    /// motif's timestamp-only enumeration skeleton once on the real
    /// graph and replay it against every flow permutation as a dense
    /// kernel pass, instead of running N+1 full enumerations. Counts
    /// are identical either way (the equivalence tests lock this in);
    /// disable to force the per-graph enumeration path. A motif whose
    /// recording is bypassed (trace budget exceeded, see
    /// max_skeleton_edges) takes that path on its own.
    bool skeleton_replay = true;

    /// Trace budget handed to EnumerationSkeleton::Record; recordings
    /// that would exceed it fall back to per-graph enumeration.
    size_t max_skeleton_edges = EnumerationSkeleton::kDefaultMaxEdges;

    /// Optional query lifecycle control (not owned). The match scans
    /// check it per work unit ("p1.unit") and honor
    /// WorkBudget::max_matches — a cut analyzes the canonical match
    /// prefix, exactly as kCount counts it — and the recordings check
    /// it per match ("sweep.record"). A hard stop there leaves every
    /// report at graphs_completed = 0. The pass checks it once per
    /// ensemble task ("sig.task"); on a stop every report covers the
    /// contiguous prefix of completed tasks — identical to a clean run
    /// with that many random graphs, since permutations are drawn
    /// serially from the seed.
    QueryControl* control = nullptr;
  };

  struct MotifReport {
    std::string motif_name;
    int64_t real_count = 0;
    std::vector<double> random_counts;  // one per randomized graph
    SampleSummary random_summary;       // box-plot stats (Fig. 14)
    double z_score = 0.0;
    double p_value = 0.0;               // empirical p-value

    /// Execution footprint: whether this motif's counts came from one
    /// recording + N+1 replays (vs N+1 full enumerations), its recorded
    /// trace size and the wall seconds its recording took — on the
    /// pool when Options::pool is set, so the pooled wall time, not a
    /// serial one (all zero when the enumeration path ran) — and the
    /// wall seconds of the one ensemble pass that counted every motif
    /// of the call on every graph — shared, so every report of one
    /// AnalyzeAll carries the same replay_seconds.
    bool used_skeleton_replay = false;
    int64_t skeleton_edges = 0;
    double record_seconds = 0.0;
    double replay_seconds = 0.0;

    /// Lifecycle outcome (DESIGN.md Sec. 10). When not complete(), the
    /// report covers graphs_completed ensemble tasks (task 0 = real
    /// graph): real_count is valid iff graphs_completed >= 1,
    /// random_counts holds graphs_completed - 1 entries, and the
    /// z/p statistics are computed over that prefix (zero when no
    /// random count completed).
    Termination termination;
    int64_t graphs_completed = 0;
  };

  SignificanceAnalyzer(const TimeSeriesGraph& graph, const Options& options);
  // The analyzer keeps a reference to the graph: temporaries would dangle.
  SignificanceAnalyzer(TimeSeriesGraph&&, const Options&) = delete;

  /// Analyzes one motif: AnalyzeAll({motif}).front().
  MotifReport Analyze(const Motif& motif) const;

  /// Analyzes a set of motifs against ONE shared permutation ensemble —
  /// the paper's setup (one set of randomized datasets serves every
  /// motif) — in one streamed pass over the N+1 graphs. Permutation i
  /// is drawn once from the seed and serves every motif, so each report
  /// is identical to the corresponding single-motif Analyze call
  /// regardless of the set's composition or order.
  std::vector<MotifReport> AnalyzeAll(const std::vector<Motif>& motifs) const;

 private:
  /// One motif's flow-independent setup: its structural matches (kept
  /// only when the enumeration path needs them) and its recording.
  struct PreparedMotif {
    MatchList matches;
    EnumerationSkeleton skeleton;
    double record_seconds = 0.0;
  };

  /// The one ensemble pass: counts every motif on the real graph
  /// (task 0) and on each of the N permutations, filling
  /// (*counts)[motif][task]. Returns the contiguous prefix of tasks
  /// completed (N + 1 unless Options::control stopped the pass).
  int64_t CountEnsemble(const std::vector<Motif>& motifs,
                        const std::vector<PreparedMotif>& prepared,
                        std::vector<std::vector<int64_t>>* counts) const;

  /// Summary statistics over the first `tasks_completed` per-task
  /// counts (index 0 = real). Fills graphs_completed and, when the
  /// prefix is empty or partial, degrades gracefully (no stats over
  /// tasks that never ran); the caller attaches the Termination.
  MotifReport BuildReport(const Motif& motif,
                          const std::vector<int64_t>& counts,
                          int64_t tasks_completed) const;

  const TimeSeriesGraph& graph_;
  Options options_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_SIGNIFICANCE_H_
