#ifndef FLOWMOTIF_SERVE_QUERY_SERVICE_H_
#define FLOWMOTIF_SERVE_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/motif.h"
#include "engine/match_list_cache.h"
#include "engine/query_engine.h"
#include "engine/query_options.h"
#include "graph/epoch_log.h"
#include "graph/time_series_graph.h"
#include "util/cancellation.h"
#include "util/lru_map.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace flowmotif {

/// serve/: the multi-query serving layer (DESIGN.md Sec. 11). One
/// QueryService fronts one EpochLog and runs many concurrent queries
/// through QueryEngine against its latest sealed snapshot, adding what
/// a single synchronous Run call cannot provide:
///
///  * live data — Append buffers edges and SealEpoch atomically swaps
///    the served snapshot; every query runs against the snapshot that
///    was live when it was submitted and keeps it alive via shared_ptr,
///    so a seal never invalidates an in-flight (or queued) run;
///  * admission control and tenant-fair scheduling — a bounded queue in
///    front of a concurrency cap, rejecting overload with a kRejected
///    Termination instead of blocking, skipping over-cap tenants, and
///    resolving queued requests whose deadline expired before admission
///    with kDeadlineExceeded instead of burning a run slot on them;
///  * a match-list cache — phase P1 depends only on the motif and the
///    topology, so the complete structural match list one query finds
///    (a flat MatchList) answers P1 for every later query of that motif
///    on the same topology, whatever its mode, delta or phi. Keyed by
///    (motif, topology_identity()), bounded at kMatchListCacheBytes,
///    evicting the least recently used list; a seal that adds no pair
///    keeps the topology and so the lists, one that adds a pair drops
///    them;
///  * deduplication — identical submissions coalesce onto one in-flight
///    engine run, and a completed-result cache (keyed like the dedup
///    table, qualified by epoch, invalidated at every real seal,
///    evicting its least recently used result when full) makes repeats
///    *after* completion free as well.
///
///  * elastic parallelism — every served run borrows the service's one
///    helper pool (QueryOptions::pool): its parallel phases run on its
///    request worker plus whichever helpers no other run holds, so an
///    expensive read spreads over the hardware threads the running
///    queries leave idle.
///
/// A served run handles window lists exactly as a solo QueryEngine::Run
/// does (one per-query cache for interior-node motifs, none otherwise),
/// so results are byte-identical to solo runs on the same snapshot: the
/// match-list cache only changes where a match list is *found*, never
/// its contents, and the engine's canonical-order folds already make
/// every mode deterministic at any thread count (tests/serving_test.cc
/// and tests/serving_epoch_test.cc lock this in under TSan).

/// Service-wide configuration. Every 0 selects the documented default.
struct ServiceConfig {
  /// Request workers: each runs one admitted query at a time. 0 = one
  /// per hardware thread. With 1 worker the pool degenerates to inline
  /// execution: Submit runs the query synchronously on the calling
  /// thread (still correct, used by deterministic tests).
  int num_workers = 0;

  /// Queries running at once. 0 = num_workers. The service also starts
  /// ThreadPool::DefaultParallelism() - max_concurrent helper threads
  /// (none when the cap covers every hardware thread), which every
  /// running query's parallel phases share beside its own worker; the
  /// QueryOptions::num_threads of a served query is ignored. Running
  /// queries plus busy helpers never exceed the hardware threads.
  int max_concurrent = 0;

  /// Bounded admission queue depth behind the concurrency cap. A
  /// Submit that finds the queue full fails fast: its result carries
  /// Termination kRejected at site "serve.admit" instead of blocking
  /// the caller.
  int max_queue_depth = 64;

  /// Per-tenant cap on concurrently *running* queries (0 = unlimited).
  /// Queued requests of an at-cap tenant are skipped — not dequeued —
  /// by the admission scan, so another tenant's later submission can
  /// start first (tenant fairness) while FIFO order is preserved
  /// within each tenant.
  int per_tenant_max_running = 0;

  /// Default lifecycle bounds stamped onto requests that carry none.
  /// The deadline is anchored at Submit time, so it covers queue wait:
  /// a request that queues past it resolves at "serve.admit" without
  /// occupying a worker. 0 / inactive = no default. Dedup and
  /// result-cache eligibility are decided on the *caller-supplied*
  /// options, before these defaults are stamped — a shared run under
  /// identical service defaults takes the earliest leader's anchor.
  double default_deadline_seconds = 0.0;
  WorkBudget default_budget;

  /// Always 0: see ServiceStats::tier_lookups.
  static constexpr size_t tier_max_entries = 0;

  /// In-flight dedup of identical submissions. Only requests whose
  /// *callers* supplied no cancel token, deadline, or budget are
  /// eligible — per-request lifecycle state must not be shared
  /// (service defaults are fine: they are identical across the
  /// coalesced set by construction).
  bool enable_dedup = true;

  /// Completed-result cache, keyed like the dedup table plus the epoch
  /// and cleared at every real seal: a repeat of a completed query on
  /// an unchanged snapshot resolves immediately with the shared
  /// immutable result, no engine run. Same eligibility as dedup. Holds
  /// at most result_cache_max_entries results, evicting the least
  /// recently used one to make room.
  bool enable_result_cache = true;
  size_t result_cache_max_entries = 256;
};

/// One query submission.
struct ServeRequest {
  Motif motif;
  QueryOptions options;

  /// Admission-control identity; empty = the shared anonymous tenant.
  std::string tenant{};

  /// Test hook: runs on the worker immediately before the engine run
  /// (after queue wait). A coalesced, result-cached, or
  /// expired-in-queue submission's hook never runs — the submission
  /// never executes.
  std::function<void()> on_start{};
};

/// What a Submit future resolves to.
struct ServedResult {
  /// The query result; shared because coalesced / result-cached
  /// submissions alias one run's output. Never null.
  std::shared_ptr<const QueryResult> result;

  /// The request never ran: admission queue full (result->termination
  /// is kRejected at "serve.admit") or a fault injected at admission.
  bool rejected = false;

  /// This submission attached to an identical in-flight run instead of
  /// executing (result is the leader's).
  bool coalesced = false;

  /// This submission was answered by the completed-result cache
  /// (result is the original run's; no engine run happened).
  bool from_result_cache = false;

  /// Epoch of the snapshot this request was served against (the one
  /// live at Submit).
  EpochId epoch = 0;

  /// Order in which the owning engine run *started* (service-wide,
  /// from 0); -1 when rejected or expired in queue. Followers and
  /// result-cache hits report their leader's / producer's sequence.
  /// The fairness tests key on this.
  int64_t admission_sequence = -1;

  double queue_seconds = 0.0;  // Submit to engine-run start
  double total_seconds = 0.0;  // Submit to completion
};

/// Aggregate service counters (monotone except the marked gauges; read
/// at any time).
struct ServiceStats {
  int64_t submitted = 0;
  int64_t completed = 0;  // engine runs finished (followers not counted)
  int64_t rejected = 0;
  int64_t coalesced = 0;
  /// Queued requests resolved kDeadlineExceeded at admission, without
  /// ever occupying a worker.
  int64_t expired_in_queue = 0;
  /// Submissions answered by the completed-result cache.
  int64_t result_cache_hits = 0;
  /// Real seals published (empty-tail no-op seals not counted).
  int64_t seals = 0;
  int64_t peak_running = 0;
  int64_t peak_queue_depth = 0;
  /// Always 0, neither stored nor settable: the service keeps no
  /// cross-query window cache, but perfbench still reports these three
  /// (with ServiceConfig::tier_max_entries); the benchmark change of
  /// ROADMAP item 5(b) deletes them with its serve.tier_* layers.
  static constexpr int64_t tier_lookups = 0;
  static constexpr int64_t tier_hits = 0;
  static constexpr int64_t tier_rotations = 0;
  /// Match-list cache: engine runs that asked it for their motif's list
  /// on their snapshot's topology, and how many found one (and so ran
  /// no phase P1).
  int64_t match_list_lookups = 0;
  int64_t match_list_hits = 0;
  /// Gauge: bytes of the match lists held now (at most
  /// QueryService::kMatchListCacheBytes).
  int64_t match_list_bytes = 0;
};

/// The serving facade. Thread-safe: Submit / Stats / Snapshot may be
/// called from any thread; Append / SealEpoch are single-writer (the
/// EpochLog contract) but safe against concurrent Submits. Destruction
/// drains — it blocks until every admitted request (running or queued)
/// has completed.
class QueryService {
 public:
  /// Byte bound of the match-list cache. The ten catalog motifs' lists
  /// on the bitcoin-like benchmark graph take about 4.9 MB flat; the
  /// bound leaves room for about three times that before the least
  /// recently used list is evicted.
  static constexpr size_t kMatchListCacheBytes = size_t{16} << 20;

  /// Serves `graph` as the epoch-0 snapshot of a fresh log.
  explicit QueryService(TimeSeriesGraph graph,
                        ServiceConfig config = ServiceConfig());
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits one query against the currently live snapshot. Never
  /// blocks on the queue: overload resolves the future immediately
  /// with kRejected. The future is resolved by a worker (or inline
  /// with 1 worker); futures from coalesced submissions resolve when
  /// their leader's run completes, result-cache hits resolve
  /// immediately.
  std::future<ServedResult> Submit(ServeRequest request);

  /// Buffers one edge in the log's append tail. Not visible to queries
  /// until the next SealEpoch. Monotone-time checked (EpochLog
  /// contract); a rejected edge changes nothing.
  Status Append(VertexId src, VertexId dst, Timestamp t, Flow f);
  Status Append(const InteractionGraph::Edge& edge) {
    return Append(edge.src, edge.dst, edge.t, edge.f);
  }

  /// Folds the append tail into a new snapshot and atomically swaps
  /// the served graph: submissions after this call run against the new
  /// epoch; in-flight and queued requests keep their submit-time
  /// snapshot (alive via shared_ptr — drain semantics unchanged). A
  /// real seal clears the completed-result cache and drops the match
  /// lists of a topology it replaced (a seal that adds no pair keeps
  /// the topology, and so the lists); an empty-tail seal is a no-op
  /// that invalidates nothing. The seal's cost under the service lock
  /// is a pointer swap plus those two cache updates, not a pass over
  /// the graph; the replaced snapshot, results and lists are freed
  /// after the lock, once no queued or running request holds them.
  EpochLog::SealInfo SealEpoch();

  /// The currently served snapshot; safe to hold across later seals.
  std::shared_ptr<const TimeSeriesGraph> Snapshot() const;

  /// Epoch id of the currently served snapshot.
  EpochId epoch() const;

  ServiceStats Stats() const;

  const ServiceConfig& config() const { return config_; }

 private:
  struct Pending;
  struct Inflight;

  struct CachedResult {
    std::shared_ptr<const QueryResult> result;
    /// The producing run's admission sequence, reported by cache hits.
    int64_t sequence = -1;
  };

  /// A queued request found dead at admission, plus the followers that
  /// coalesced onto it; resolved outside the lock.
  struct ExpiredEntry;

  /// Dedup/result-cache key for an eligible request: the epoch it will
  /// run against, the motif's structural encoding, and every
  /// result-affecting option. Execution knobs (num_threads, pool,
  /// batch_size, skeleton_replay) are excluded — results are
  /// byte-identical across them by engine contract. Qualifying by
  /// epoch means a post-seal submission can never coalesce onto (or be
  /// answered by) a pre-seal run.
  static std::string DedupKey(const Motif& motif, const QueryOptions& options,
                              EpochId epoch);

  /// Runs one admitted request on the calling (worker) thread, then
  /// re-scans the queue for newly admissible work.
  void RunOne(std::shared_ptr<Pending> pending, int64_t sequence);

  /// Starts every queue entry the caps admit and extracts every queued
  /// entry whose deadline expired (resolved by the caller outside mu_
  /// — they never occupy a worker). Requires mu_ held; `started` pairs
  /// must be handed to the pool *after* releasing mu_ (a 1-worker pool
  /// runs tasks inline, which would re-enter the lock).
  void AdmitFromQueueLocked(
      std::vector<std::pair<std::shared_ptr<Pending>, int64_t>>* started,
      std::vector<ExpiredEntry>* expired);

  /// Resolves an expired-in-queue entry (leader + followers) with
  /// kDeadlineExceeded at "serve.admit". Call without mu_ held.
  static void FulfillExpired(ExpiredEntry* entry);

  /// Bumps running/tenant counters for `pending`, hands it the
  /// match-list cache and the helper pool, and assigns its sequence.
  /// Requires mu_ held.
  int64_t StartLocked(Pending* pending);

  const ServiceConfig config_;
  const int max_concurrent_;

  /// The log is single-writer (Append / SealEpoch hold log_mu_); query
  /// admission reads only the published snapshot mirror below.
  std::mutex log_mu_;
  EpochLog log_;

  mutable std::mutex mu_;
  std::condition_variable drained_;
  /// Mirror of the log's latest snapshot, republished under mu_ by
  /// SealEpoch so Submit captures (snapshot, epoch) atomically with
  /// admission. Never null.
  std::shared_ptr<const TimeSeriesGraph> live_graph_;
  EpochId live_epoch_ = 0;
  int64_t running_ = 0;
  int64_t next_sequence_ = 0;
  std::deque<std::shared_ptr<Pending>> queue_;
  std::unordered_map<std::string, int64_t> tenant_running_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;
  LruMap<std::string, CachedResult> result_cache_;
  /// Thread-safe on its own; every served run reads it directly. Its
  /// live topology moves with live_graph_ at each real seal.
  MatchListCache match_lists_;
  ServiceStats stats_;

  /// The helpers every served run borrows (QueryOptions::pool): each
  /// ParallelFor of a run computes on its request worker plus the
  /// helpers no other run holds. Destroyed after pool_, so no run
  /// outlives it.
  ThreadPool helpers_;

  /// The request workers. Last member: destroyed first, but the
  /// destructor drains the queue explicitly before ~ThreadPool joins
  /// the workers.
  ThreadPool pool_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_SERVE_QUERY_SERVICE_H_
