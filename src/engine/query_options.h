#ifndef FLOWMOTIF_ENGINE_QUERY_OPTIONS_H_
#define FLOWMOTIF_ENGINE_QUERY_OPTIONS_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/cancellation.h"

namespace flowmotif {

class MatchListCache;
class ThreadPool;

/// The query modes unified behind QueryEngine — the paper's threshold
/// enumeration (Sec. 4), top-k and top-1 search (Sec. 5), significance
/// analysis (Sec. 6.3), plus the construction-free counting mode
/// (Sec. 7 future work).
enum class QueryMode {
  kEnumerate,     // all maximal instances with flow >= phi
  kCount,         // instance count only, memoized recursion
  kTopK,          // k largest-flow instances, floating threshold
  kTop1,          // single best instance, DP (Algorithm 2)
  kSignificance,  // z-score / p-value vs flow-permuted graphs
};

/// One options struct configuring every mode. Fields that do not apply
/// to the selected mode are ignored.
struct QueryOptions {
  QueryMode mode = QueryMode::kEnumerate;

  /// Def. 3.1 thresholds. `phi` applies to kEnumerate / kCount /
  /// kSignificance; kTopK runs with it as a static floor under the
  /// floating threshold (0 reproduces the paper's pure top-k).
  Timestamp delta = 0;
  Flow phi = 0.0;

  /// kTopK: number of results, >= 1.
  int64_t k = 10;

  /// kEnumerate: apply the Def. 3.3 strict-maximality post-filter.
  bool strict_maximality = false;

  /// kEnumerate: how many instances to materialize into
  /// QueryResult::instances, in serial discovery order. 0 collects
  /// nothing (counters only), -1 collects every instance.
  int64_t collect_limit = 0;

  /// kSignificance: number of flow-permuted graphs and RNG seed.
  int num_random_graphs = 20;
  uint64_t seed = 1;

  /// Worker threads for both phases. 1 = serial reference path; 0 = one
  /// per hardware thread. Results are byte-identical for every value.
  /// Ignored when `pool` is set.
  int num_threads = 1;

  /// A pool the run borrows instead of making its own (non-owning, may
  /// be null; util/thread_pool.h). Null: the run makes a pool of
  /// num_threads threads and drops it at its end. Set: every parallel
  /// phase of the run calls ParallelFor on this pool, which may serve
  /// other runs at the same time (QueryService hands each served run
  /// its one helper pool, whose callers compute beside the helpers);
  /// QueryResult::threads_used reports its num_threads(). Results stay
  /// byte-identical either way. Owned by the caller, which must keep it
  /// alive for the call.
  ThreadPool* pool = nullptr;

  /// Structural matches per P2 batch; 0 derives the size: one batch at
  /// one thread, about eight per thread otherwise (PartitionIndexSpace).
  int64_t batch_size = 0;

  /// kSignificance and RunSweep: use record-once / replay-many
  /// enumeration skeletons (core/skeleton.h) where applicable. Counts
  /// and reports are identical either way (the equivalence tests lock
  /// this in); disable to force per-graph / per-cell enumeration. Both
  /// paths fall back on their own when recording is bypassed (trace
  /// budget exceeded).
  bool skeleton_replay = true;

  /// Cross-query match-list cache (non-owning, may be null;
  /// engine/match_list_cache.h): phase P1 depends only on the motif and
  /// the topology, so kEnumerate, kCount, kTopK and kTop1 runs through
  /// Run read a complete match list from it instead of running P1 (a
  /// hit), or run P1 to completion before P2 and publish the list (a
  /// miss). Under WorkBudget::max_matches a hit runs only the first
  /// max_matches matches and a miss publishes nothing. Results stay
  /// byte-identical; only where the list comes from changes.
  /// kSignificance, RunOnMatches and RunSweep do not read it. Owned by
  /// the caller (typically serve/QueryService), which must keep it
  /// alive for the call.
  MatchListCache* match_list_cache = nullptr;

  /// Lifecycle controls (DESIGN.md Sec. 10). All default to inactive;
  /// when none is set the engine runs the zero-overhead path. The
  /// token is non-owning and must outlive the (synchronous) call.
  const CancellationToken* cancel_token = nullptr;
  QueryDeadline deadline;
  WorkBudget budget;
};

/// A delta x phi evaluation grid for QueryEngine::RunSweep — the shape
/// of the paper's Fig. 9 (counts vs delta) and Fig. 10 (counts vs phi)
/// curves. The whole grid is answered in one sweep: phase P1 runs once,
/// each delta's enumeration skeleton is recorded once, and every phi of
/// that delta is a replay of the recorded trace.
struct SweepQuery {
  std::vector<Timestamp> deltas;
  std::vector<Flow> phis;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_ENGINE_QUERY_OPTIONS_H_
