#include "engine/query_engine.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "core/counter.h"
#include "core/skeleton.h"
#include "core/window_cursor.h"
#include "engine/executor.h"
#include "engine/match_list_cache.h"
#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/timer.h"

namespace flowmotif {

namespace {

int ResolveThreads(const QueryOptions& options) {
  // num_threads >= 0 was validated at the engine entry point.
  return options.num_threads == 0 ? ThreadPool::DefaultParallelism()
                                  : options.num_threads;
}

/// The execution knobs every entry point validates.
Status ValidateExecution(const QueryOptions& options) {
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  if (options.batch_size < 0) {
    return Status::InvalidArgument("batch_size must be >= 0");
  }
  return Status::OK();
}

/// Entry-point validation of untrusted options; a failure becomes a
/// kError termination, never a process abort.
Status ValidateQueryOptions(const QueryOptions& options) {
  const Status execution = ValidateExecution(options);
  if (!execution.ok()) return execution;
  if (options.delta < 0) {
    return Status::InvalidArgument("delta must be non-negative");
  }
  if (options.phi < 0.0) {
    return Status::InvalidArgument("phi must be non-negative");
  }
  if (options.mode == QueryMode::kTopK && options.k < 1) {
    return Status::InvalidArgument("kTopK requires k >= 1");
  }
  if (options.mode == QueryMode::kSignificance &&
      options.num_random_graphs <= 0) {
    return Status::InvalidArgument(
        "kSignificance requires num_random_graphs > 0");
  }
  if (options.shared_cache_tier != nullptr &&
      options.shared_cache_tier->delta() != options.delta) {
    return Status::InvalidArgument(
        "shared_cache_tier is bound to a different delta");
  }
  return Status::OK();
}

Status ValidateSweep(const SweepQuery& sweep, const QueryOptions& options) {
  const Status execution = ValidateExecution(options);
  if (!execution.ok()) return execution;
  if (sweep.deltas.empty()) {
    return Status::InvalidArgument("sweep needs at least one delta");
  }
  if (sweep.phis.empty()) {
    return Status::InvalidArgument("sweep needs at least one phi");
  }
  for (const Timestamp delta : sweep.deltas) {
    if (delta < 0) {
      return Status::InvalidArgument("sweep deltas must be non-negative");
    }
  }
  for (const Flow phi : sweep.phis) {
    if (phi < 0.0) {
      return Status::InvalidArgument("sweep phis must be non-negative");
    }
  }
  return Status::OK();
}

/// The kError termination of a run that never started.
Termination InvalidOptionsTermination(Status status) {
  Termination termination;
  termination.code = TerminationCode::kError;
  termination.stopped_at = failpoint::kEngineStart;
  termination.detail = "invalid options";
  termination.status = std::move(status);
  termination.work_completed = 0;
  return termination;
}

/// Surfaces the pool's first task exception (satellite of the lifecycle
/// work: a throwing task is recorded at the task boundary, the pool
/// stays serviceable, and the submitting query reports it here). A
/// thrown batch silently dropped its contribution, so on kError the
/// partial results are best-effort, not a canonical prefix.
void OverlayPoolError(ThreadPool* pool, Termination* termination) {
  Status error = pool->TakeFirstError();
  if (error.ok()) return;
  if (termination->code == TerminationCode::kCompleted) {
    termination->code = TerminationCode::kError;
    termination->stopped_at = "thread_pool";
    termination->detail = "worker task threw";
    termination->status = std::move(error);
  } else if (termination->status.ok()) {
    termination->status = std::move(error);
  }
}

/// The prologue and epilogue that Run, RunOnMatches and RunSweep share.
/// The wall clock starts at construction.
class EntryScope {
 public:
  /// Validates, makes the query's control (null on the zero-overhead
  /// path) and pool, and checks "engine.start". Returns false when the
  /// run ends here; `result` then carries its termination.
  template <typename Result>
  bool Begin(const Status& valid, const QueryOptions& options,
             Result* result) {
    if (!valid.ok()) {
      result->termination = InvalidOptionsTermination(valid);
    } else {
      control_ = MakeQueryControl(options.cancel_token, options.deadline,
                                  options.budget);
      pool_.emplace(ResolveThreads(options));
      result->threads_used = pool_->num_threads();
      if (control_ == nullptr ||
          !control_->CheckAt(failpoint::kEngineStart)) {
        return true;
      }
      result->termination = control_->Finish(0);
    }
    End(result);
    return false;
  }

  /// Surfaces a pool task error and stamps the end-to-end time.
  template <typename Result>
  void End(Result* result) {
    if (pool_.has_value()) OverlayPoolError(&*pool_, &result->termination);
    result->wall_seconds = wall_.ElapsedSeconds();
  }

  ThreadPool* pool() { return &*pool_; }
  QueryControl* control() const { return control_.get(); }

 private:
  WallTimer wall_;
  std::unique_ptr<QueryControl> control_;
  std::optional<ThreadPool> pool_;
};

/// kTopK stat normalization, applied after the final collector drain:
/// num_instances becomes the number of returned entries (exact and
/// thread-count-invariant; under a hard stop, exact over the canonical
/// match prefix), while the raw threshold-dependent activity — how many
/// emissions survived the floating threshold plus how many prefixes the
/// phi/threshold bound cut — moves to num_pruning_probes, the one
/// counter documented as execution-dependent.
void FinalizeTopKStats(EnumerationResult* stats, size_t num_entries) {
  stats->num_pruning_probes = stats->num_instances + stats->num_phi_prunes;
  stats->num_instances = static_cast<int64_t>(num_entries);
  stats->num_phi_prunes = 0;
}

/// The per-match loop of the enumerate, count and top-k kernels: runs
/// `body(match, i)` on the i-th match of the range [begin, end) of
/// `matches`, checking "p2.batch" before each under a control. Returns
/// how many leading matches ran — the whole range unless the control
/// stopped the run.
template <typename Body>
int64_t ForEachMatch(const MatchList& matches, int64_t begin, int64_t end,
                     QueryControl* control, const Body& body) {
  int64_t i = 0;
  for (; begin + i < end; ++i) {
    if (control != nullptr && control->CheckAt(failpoint::kP2Batch)) break;
    body(matches[begin + i], i);
  }
  return i;
}

/// Where a run's matches come from. With `list` null the executor
/// streams P1 shards; otherwise the run covers the first `size` matches
/// of `list` — the caller's list, a cached one, or one the run scanned
/// before P2, in which case `p1_seconds` is the scan's time.
struct MatchSource {
  const MatchList* list = nullptr;
  int64_t size = 0;
  double p1_seconds = 0.0;
  std::shared_ptr<const MatchList> held;  // keeps a cached or scanned list
};

/// The match source of a Run (`list` null) or of a run over `list`.
/// With a match-list cache (QueryOptions::match_list_cache) a hit hands
/// over the cached list without a copy — under WorkBudget::max_matches
/// only its first max_matches matches, marking kBudgetExceeded at
/// "p1.unit" exactly when the list is longer, as the capped scan would
/// — and a miss runs P1 to completion first, then publishes the list
/// unless a stop cut it short. A max_matches run scans its capped
/// prefix first and publishes nothing. Otherwise P1 streams.
MatchSource SourceMatches(const TimeSeriesGraph& graph,
                          const StructuralMatcher& matcher,
                          const MatchList* list, const QueryOptions& options,
                          ThreadPool* pool, QueryControl* control) {
  MatchSource source;
  if (list != nullptr) {
    source.list = list;
    source.size = list->size();
    return source;
  }
  const int64_t max_matches =
      control != nullptr ? control->budget().max_matches : -1;
  MatchListCache* const cache = options.match_list_cache;
  const StorageIdentity topology = graph.topology_identity();
  if (cache != nullptr) {
    source.held = cache->Find(matcher.motif(), topology);
    if (source.held != nullptr) {
      source.list = source.held.get();
      source.size = source.list->size();
      if (max_matches >= 0 && source.size > max_matches) {
        source.size = max_matches;
        control->MarkTruncated(TerminationCode::kBudgetExceeded,
                               failpoint::kP1Unit, "max_matches");
      }
      return source;
    }
  } else if (max_matches < 0) {
    return source;
  }
  WallTimer timer;
  auto scanned = std::make_shared<MatchList>(
      FindMatchesControlled(matcher, pool, control));
  source.p1_seconds = timer.ElapsedSeconds();
  // Only a complete list is published: never a max_matches prefix, and
  // never one a stop cut short (P2 has not started, so nothing but the
  // scan can have stopped the run yet).
  if (cache != nullptr && max_matches < 0 &&
      (control == nullptr || !control->ShouldStop())) {
    scanned->ShrinkToFit();
    cache->Insert(matcher.motif(), topology, scanned);
  }
  source.list = scanned.get();
  source.size = scanned->size();
  source.held = std::move(scanned);
  return source;
}

/// Everything one P2 mode needs. Each mode below is written once, as a
/// batch kernel plus a fold, and serves Run, RunOnMatches, RunSweep's
/// fallback cells and max_matches runs alike.
struct ModeRun {
  const TimeSeriesGraph& graph;
  const Motif& motif;
  const QueryOptions& options;
  const StructuralMatcher& matcher;
  const MatchSource& source;
  ThreadPool* pool;
  QueryControl* control;
  SharedWindowCache* cache;  // null: every reader computes its own lists
  QueryResult* result;

  /// One batch's window-list reader (a batch runs on one thread).
  SharedWindowCache::Reader NewReader() const {
    return SharedWindowCache::Reader(cache, options.delta, control);
  }

  EnumerationOptions Enumeration() const {
    EnumerationOptions eopts;
    eopts.delta = options.delta;
    eopts.phi = options.phi;
    eopts.strict_maximality = options.strict_maximality;
    eopts.shared_window_cache = cache;
    eopts.query_control = control;
    return eopts;
  }

  /// Drives `kernel` through the executor, then records what every mode
  /// reports the same way: the folded match prefix, the batch count,
  /// the phase times and the termination.
  void Execute(const BatchKernel& kernel) const {
    const ExecutorStats run =
        ExecuteBatches(matcher, source.list, source.size, options.batch_size,
                       pool, control, kernel);
    result->stats.num_structural_matches = run.matches_done;
    result->stats.phase1_seconds = source.p1_seconds + run.p1_seconds;
    result->stats.phase2_seconds = run.p2_seconds;
    result->num_batches = run.num_batches;
    if (control != nullptr) {
      result->termination = control->Finish(run.matches_done);
    }
  }
};

/// kEnumerate: a batch enumerates its matches and keeps its first
/// collect_limit instances, which include every one of the global first
/// collect_limit that falls in the batch; the fold merges the counters
/// and appends instances in serial order up to the limit.
void EnumerateBatches(const ModeRun& run) {
  const FlowMotifEnumerator enumerator(run.graph, run.motif,
                                       run.Enumeration());
  const int64_t limit = run.options.collect_limit;
  QueryResult* const result = run.result;
  run.Execute([&](int64_t, const MatchList& matches, int64_t begin,
                  int64_t end) {
    EnumerationResult stats;
    SharedWindowCache::Reader windows = run.NewReader();
    std::vector<MotifInstance> collected;
    InstanceVisitor visitor;  // stays null (counters only) when limit == 0
    if (limit != 0) {
      visitor = [&collected, limit](const InstanceView& view) {
        if (limit < 0 || static_cast<int64_t>(collected.size()) < limit) {
          collected.push_back(view.Materialize());
        }
        return true;
      };
    }
    const int64_t processed = ForEachMatch(
        matches, begin, end, run.control, [&](MatchRef match, int64_t) {
          enumerator.EnumerateMatch(match, visitor, &stats, &windows);
        });
    return BatchOutput{
        processed,
        [result, limit, stats, collected = std::move(collected)]() mutable {
          result->stats.MergeFrom(stats);
          for (MotifInstance& instance : collected) {
            if (limit >= 0 &&
                static_cast<int64_t>(result->instances.size()) >= limit) {
              break;
            }
            result->instances.push_back(std::move(instance));
          }
        }};
  });
}

/// kCount: a batch counts its matches; the fold sums the counters.
void CountBatches(const ModeRun& run) {
  const InstanceCounter counter(run.graph, run.motif, run.options.delta,
                                run.options.phi, run.cache);
  QueryResult* const result = run.result;
  run.Execute([&](int64_t, const MatchList& matches, int64_t begin,
                  int64_t end) {
    InstanceCounter::Result counts;
    SharedWindowCache::Reader windows = run.NewReader();
    const int64_t processed = ForEachMatch(
        matches, begin, end, run.control, [&](MatchRef match, int64_t) {
          counts.num_instances += counter.CountMatch(match, &counts, &windows);
        });
    return BatchOutput{processed, [result, counts] {
                         result->stats.num_instances += counts.num_instances;
                         result->stats.num_windows_processed +=
                             counts.num_windows;
                         result->memo_hits += counts.memo_hits;
                       }};
  });
}

/// kTopK: a batch offers every emission to a bounded local collector
/// under its DiscoveryRank, and the fold merges the collectors (the
/// bounded collector is insertion-order-independent). Without a
/// control one SharedFlowThreshold observes every batch's emissions,
/// so it tightens before any single collector fills, at the serial
/// searcher's pruning rate. Under a control each batch keeps its own
/// threshold: a cross-batch Observe would let out-of-prefix emissions
/// tighten pruning inside prefix batches, and a folded prefix would no
/// longer be the exact top-k of exactly its matches. The price is more
/// surviving emissions, which changes pruning counters but never
/// entries.
void TopKBatches(const ModeRun& run) {
  const int64_t k = run.options.k;
  SharedFlowThreshold shared(k);
  TopKCollector global(k);
  QueryResult* const result = run.result;
  run.Execute([&](int64_t first, const MatchList& matches, int64_t begin,
                  int64_t end) {
    std::optional<SharedFlowThreshold> own;
    SharedFlowThreshold* const threshold =
        run.control != nullptr ? &own.emplace(k) : &shared;
    EnumerationOptions eopts = run.Enumeration();
    eopts.dynamic_min_flow_exclusive = [threshold] {
      return threshold->ExclusiveBound();
    };
    const FlowMotifEnumerator enumerator(run.graph, run.motif, eopts);
    SharedWindowCache::Reader windows = run.NewReader();
    TopKCollector local(k);
    EnumerationResult stats;
    const int64_t processed = ForEachMatch(
        matches, begin, end, run.control, [&](MatchRef match, int64_t i) {
          int64_t emit_index = 0;
          enumerator.EnumerateMatch(
              match,
              [&](const InstanceView& view) {
                local.Offer(view.flow, DiscoveryRank{first + i, emit_index++},
                            view);
                threshold->Observe(view.flow);
                return true;
              },
              &stats, &windows);
        });
    return BatchOutput{
        processed,
        [&global, result, stats, local = std::move(local)]() mutable {
          global.MergeFrom(std::move(local));
          result->stats.MergeFrom(stats);
        }};
  });
  result->topk = global.Drain();
  FinalizeTopKStats(&result->stats, result->topk.size());
}

/// kTop1: a batch runs the DP searcher over its matches on its own
/// scratch (the searcher checks "dp.match" per match); the fold keeps
/// the incumbent with the strictly-greater rule the serial searcher
/// applies per match, so the earliest match wins flow ties.
void Top1Batches(const ModeRun& run) {
  const MaxFlowDpSearcher searcher(run.graph, run.motif, run.options.delta,
                                   run.cache);
  MaxFlowDpSearcher::Result best;
  run.Execute([&](int64_t, const MatchList& matches, int64_t begin,
                  int64_t end) {
    MaxFlowDpSearcher::Scratch scratch;
    MaxFlowDpSearcher::Result out =
        searcher.RunOnMatches(matches, begin, end, &scratch, run.control);
    const int64_t processed = out.matches_processed;
    return BatchOutput{processed, [&best, out = std::move(out)]() mutable {
                         const int64_t num_windows =
                             best.num_windows + out.num_windows;
                         if (out.found &&
                             (!best.found || out.max_flow > best.max_flow)) {
                           best = std::move(out);
                         }
                         best.num_windows = num_windows;
                       }};
  });
  QueryResult* const result = run.result;
  best.seconds = result->stats.phase2_seconds;
  best.matches_processed = result->stats.num_structural_matches;
  result->stats.num_windows_processed = best.num_windows;
  if (best.found) result->stats.num_instances = 1;
  result->top1 = std::move(best);
}

}  // namespace

QueryResult QueryEngine::Run(const Motif& motif,
                             const QueryOptions& options) const {
  EntryScope scope;
  QueryResult result;
  result.mode = options.mode;
  if (!scope.Begin(ValidateQueryOptions(options), options, &result)) {
    return result;
  }
  if (options.mode == QueryMode::kSignificance) {
    RunSignificance(motif, options, scope.pool(), scope.control(), &result);
  } else {
    RunMode(motif, /*list=*/nullptr, options, scope.pool(), scope.control(),
            &result);
  }
  scope.End(&result);
  return result;
}

QueryResult QueryEngine::RunOnMatches(const Motif& motif,
                                      const std::vector<MatchBinding>& matches,
                                      const QueryOptions& options) const {
  EntryScope scope;
  QueryResult result;
  result.mode = options.mode;
  Status valid = ValidateQueryOptions(options);
  if (valid.ok() && options.mode == QueryMode::kSignificance) {
    valid = Status::InvalidArgument(
        "kSignificance computes and reuses its own matches; use Run()");
  }
  if (!scope.Begin(valid, options, &result)) return result;
  const MatchList list = MatchList::FromBindings(matches, motif.num_nodes());
  RunMode(motif, &list, options, scope.pool(), scope.control(), &result);
  scope.End(&result);
  return result;
}

SweepResult QueryEngine::RunSweep(const Motif& motif, const SweepQuery& sweep,
                                  const QueryOptions& options) const {
  EntryScope scope;
  SweepResult result;
  result.deltas = sweep.deltas;
  result.phis = sweep.phis;
  const Status valid = ValidateSweep(sweep, options);
  if (valid.ok()) {
    result.counts.assign(sweep.deltas.size() * sweep.phis.size(), 0);
    result.cell_valid.assign(result.counts.size(), 0);
  }
  if (!scope.Begin(valid, options, &result)) return result;
  ThreadPool* const pool = scope.pool();
  QueryControl* const control = scope.control();

  // Phase P1 once for the whole grid: structural matches depend on
  // neither delta nor phi, so per-point querying re-derives the same
  // list |grid| times.
  const MatchList matches =
      FindMatchesControlled(StructuralMatcher(graph_, motif), pool, control);
  result.num_structural_matches = matches.size();
  if (control != nullptr && control->ShouldStop()) {
    // A hard stop during P1 left an incomplete match list; no cell
    // computed over it would equal its per-point kCount run, so all
    // cells stay invalid. (A soft max_matches truncation is different:
    // cells over the kept prefix are exact for that prefix.)
    result.termination = control->Finish(0);
    scope.End(&result);
    return result;
  }

  // Deltas are recorded largest-first regardless of the caller's grid
  // order: RecordSweepDescending makes one pass over the match list,
  // recording every delta's skeleton while each match's series are hot
  // and cascading per-match viability (no phi = 0 completion at a
  // larger delta proves the match dead for all smaller ones — windows
  // shrink monotonically with delta and raising phi only removes
  // instances). On the Fig. 9 presets the bulk of structural matches
  // are dead, so the grid's tail costs O(|viable|), not O(|matches|).
  std::vector<size_t> order(sweep.deltas.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&sweep](size_t a, size_t b) {
    return sweep.deltas[a] > sweep.deltas[b];
  });

  std::vector<EnumerationSkeleton> skeletons;  // aligned with `order`
  if (options.skeleton_replay) {
    std::vector<Timestamp> descending(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      descending[i] = sweep.deltas[order[i]];
    }
    // A stop mid-recording abandons every skeleton (a partial trace
    // would replay wrong counts); the per-cell fallback below observes
    // the same stop and terminates promptly.
    EnumerationSkeleton::RecordSweepDescending(
        graph_, motif, descending, matches, EnumerationSkeleton::Options(),
        &skeletons, control);
  }

  int64_t valid_cells = 0;
  bool stopped = false;
  FlowPrefixArena arena;  // real-graph prefixes; filled once, delta-free
  for (size_t i = 0; i < order.size() && !stopped; ++i) {
    const size_t d = order[i];
    const Timestamp delta = sweep.deltas[d];
    int64_t* row = result.counts.data() + d * sweep.phis.size();
    uint8_t* row_valid = result.cell_valid.data() + d * sweep.phis.size();
    if (options.skeleton_replay && skeletons[i].recorded()) {
      // The recorded trace is phi-free: evaluate every slice flow once,
      // then each phi is one linear DP pass over the cached flows.
      if (arena.size() == 0) arena.FillFromGraph(graph_);
      SkeletonReplayer replayer(&skeletons[i]);
      replayer.EvaluateFlows(arena);
      for (size_t p = 0; p < sweep.phis.size(); ++p) {
        if (control != nullptr && control->CheckAt(failpoint::kSweepCell)) {
          stopped = true;
          break;
        }
        row[p] = replayer.CountWithFlows(sweep.phis[p]);
        row_valid[p] = 1;
        ++valid_cells;
      }
      if (!stopped) ++result.num_replayed_deltas;
      continue;
    }
    // Fallback (replay disabled, stopped, or this delta's recording
    // abandoned on budget): the kCount mode per cell over the shared
    // match list — the per-point path minus its redundant P1 runs.
    for (size_t p = 0; p < sweep.phis.size(); ++p) {
      if (control != nullptr && control->CheckAt(failpoint::kSweepCell)) {
        stopped = true;
        break;
      }
      QueryOptions cell = options;
      cell.mode = QueryMode::kCount;
      cell.delta = delta;
      cell.phi = sweep.phis[p];
      QueryResult cell_result;
      RunMode(motif, &matches, cell, pool, control, &cell_result);
      if (control != nullptr && control->ShouldStop()) {
        // The cell itself was cut short; its count is partial.
        stopped = true;
        break;
      }
      row[p] = cell_result.stats.num_instances;
      row_valid[p] = 1;
      ++valid_cells;
      ++result.num_fallback_cells;
    }
  }
  if (control != nullptr) {
    result.termination = control->Finish(valid_cells);
  } else {
    result.termination.work_completed = valid_cells;
  }
  scope.End(&result);
  return result;
}

void QueryEngine::RunMode(const Motif& motif, const MatchList* list,
                          const QueryOptions& options, ThreadPool* pool,
                          QueryControl* control, QueryResult* result) const {
  // The one window cache every batch's reader reads: the caller's
  // cross-query tier when QueryOptions carries one (serve/QueryService),
  // else a per-query cache when the motif's (first, last) pairs can
  // repeat within the graph, else none (each reader computes its own
  // lists). Readers charge `control` for the lists they materialize.
  std::optional<SharedWindowCache> per_query;
  SharedWindowCache* cache = options.shared_cache_tier;
  if (cache == nullptr && MotifHasInteriorNode(motif)) {
    cache = &per_query.emplace(options.delta);
  }
  const StructuralMatcher matcher(graph_, motif);
  const MatchSource source =
      SourceMatches(graph_, matcher, list, options, pool, control);
  const ModeRun run{graph_, motif,   options, matcher, source,
                    pool,   control, cache,   result};
  switch (options.mode) {
    case QueryMode::kEnumerate:
      EnumerateBatches(run);
      break;
    case QueryMode::kCount:
      CountBatches(run);
      break;
    case QueryMode::kTopK:
      TopKBatches(run);
      break;
    case QueryMode::kTop1:
      Top1Batches(run);
      break;
    case QueryMode::kSignificance:
      FLOWMOTIF_CHECK(false) << "rejected at the entry points";
      break;
  }
}

std::unique_ptr<StreamingMotifMonitor> QueryEngine::OpenStream(
    const Motif& motif, const StreamOptions& options) const {
  // Flatten the immutable graph back into its multigraph form and seed
  // a fresh log with it: TimeSeriesGraph::Build on this multigraph
  // reproduces every series byte for byte (series are sorted by the
  // deterministic (t, f) order), so the monitor's epoch 0 matches the
  // engine's graph exactly.
  InteractionGraph seed;
  seed.EnsureVertices(graph_.num_vertices());
  for (const TimeSeriesGraph::PairEdge& pair : graph_.pairs()) {
    for (size_t i = 0; i < pair.series.size(); ++i) {
      const Interaction x = pair.series.at(i);
      const Status status = seed.AddEdge(pair.src, pair.dst, x.t, x.f);
      FLOWMOTIF_CHECK(status.ok()) << status;
    }
  }
  return std::make_unique<StreamingMotifMonitor>(motif, options, seed);
}

void QueryEngine::RunSignificance(const Motif& motif,
                                  const QueryOptions& options,
                                  ThreadPool* pool, QueryControl* control,
                                  QueryResult* result) const {
  // num_random_graphs > 0 was validated at the engine entry point.
  SignificanceAnalyzer::Options sopts;
  sopts.num_random_graphs = options.num_random_graphs;
  sopts.seed = options.seed;
  sopts.delta = options.delta;
  sopts.phi = options.phi;
  sopts.skeleton_replay = options.skeleton_replay;
  sopts.pool = pool;
  sopts.control = control;
  // No window cache is chosen here: recording scans its own window
  // lists, and only when the motif falls back to enumeration does the
  // analyzer make its one ensemble cache, keyed on timestamp-storage
  // identity, so its lists serve the real graph and every flow view of
  // the N+1-graph ensemble.
  const SignificanceAnalyzer analyzer(graph_, sopts);
  result->significance = analyzer.Analyze(motif);
  result->stats.num_instances = result->significance.real_count;
  result->termination = result->significance.termination;
}

}  // namespace flowmotif
