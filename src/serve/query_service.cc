#include "serve/query_service.h"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <utility>

#include "util/failpoint.h"

namespace flowmotif {

namespace {

using SteadyClock = std::chrono::steady_clock;

int ResolveWorkers(int num_workers) {
  return num_workers > 0 ? num_workers : ThreadPool::DefaultParallelism();
}

double SecondsBetween(SteadyClock::time_point from, SteadyClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Bit-exact double encoding for dedup keys: two requests coalesce only
/// when every threshold matches to the bit, never "close enough".
void AppendDoubleBits(std::string* key, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  key->push_back('|');
  key->append(std::to_string(bits));
}

void AppendInt(std::string* key, int64_t value) {
  key->push_back('|');
  key->append(std::to_string(value));
}

}  // namespace

struct QueryService::Pending {
  Pending(ServeRequest r, SteadyClock::time_point t)
      : request(std::move(r)), submit_time(t) {}

  ServeRequest request;
  std::promise<ServedResult> promise;
  SteadyClock::time_point submit_time;
  /// The snapshot live at Submit; the run executes against it even if
  /// a seal swaps the published graph while this request queues (the
  /// shared_ptr keeps it alive — "admission-time snapshot" semantics).
  std::shared_ptr<const TimeSeriesGraph> snapshot;
  EpochId epoch = 0;
  /// Non-empty iff this request owns an inflight_ dedup entry.
  std::string dedup_key;
  /// Non-empty iff this request's completed result should be published
  /// to the result cache (same key as dedup, epoch-qualified).
  std::string result_key;
};

struct QueryService::Inflight {
  std::vector<std::pair<std::promise<ServedResult>, SteadyClock::time_point>>
      followers;
};

struct QueryService::ExpiredEntry {
  std::shared_ptr<Pending> pending;
  std::vector<std::pair<std::promise<ServedResult>, SteadyClock::time_point>>
      followers;
};

QueryService::QueryService(TimeSeriesGraph graph, ServiceConfig config)
    : config_(std::move(config)),
      max_concurrent_(config_.max_concurrent > 0
                          ? config_.max_concurrent
                          : ResolveWorkers(config_.num_workers)),
      log_(std::move(graph)),
      live_graph_(log_.Snapshot()),
      live_epoch_(log_.epoch()),
      match_lists_(live_graph_->topology_identity(), kMatchListCacheBytes),
      pool_(ResolveWorkers(config_.num_workers)) {}

QueryService::~QueryService() {
  // Drain: every admitted request (running or queued) completes before
  // the members it uses (log, caches, snapshots) go away. New Submits
  // during destruction are a caller contract violation, as usual.
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [this] { return running_ == 0 && queue_.empty(); });
  lock.unlock();
  // The last RunOne may still be past its counter updates but before
  // its final promise fulfillment; Wait() covers the full task.
  pool_.Wait();
}

Status QueryService::Append(VertexId src, VertexId dst, Timestamp t, Flow f) {
  std::lock_guard<std::mutex> lock(log_mu_);
  return log_.Append(src, dst, t, f);
}

EpochLog::SealInfo QueryService::SealEpoch() {
  std::lock_guard<std::mutex> log_lock(log_mu_);
  EpochLog::SealInfo info = log_.SealEpoch();
  if (info.num_appended == 0) {
    // No-op seal: nothing changed, so nothing is invalidated — the
    // result cache and match lists stay exactly as warm as they were.
    return info;
  }

  // What the seal drops is released after mu_ is unlocked: freeing
  // the old snapshot, results and match lists while holding it would
  // stall every Submit.
  std::shared_ptr<const TimeSeriesGraph> old_graph;
  std::vector<CachedResult> stale_results;
  std::vector<std::shared_ptr<const MatchList>> stale_lists;
  {
    std::lock_guard<std::mutex> lock(mu_);
    old_graph = std::exchange(live_graph_, info.graph);
    live_epoch_ = info.epoch;
    ++stats_.seals;
    // Completed results describe the pre-seal snapshot; epoch-qualified
    // keys already prevent false hits, clearing also reclaims the memory.
    result_cache_.Clear(&stale_results);
    // A seal that added no pair kept the topology: its lists stay.
    stale_lists =
        match_lists_.SetLiveTopology(live_graph_->topology_identity());
  }
  return info;
}

std::shared_ptr<const TimeSeriesGraph> QueryService::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_graph_;
}

EpochId QueryService::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_epoch_;
}

std::string QueryService::DedupKey(const Motif& motif,
                                   const QueryOptions& options,
                                   EpochId epoch) {
  std::string key = motif.PathString();
  AppendInt(&key, static_cast<int64_t>(epoch));
  AppendInt(&key, static_cast<int64_t>(options.mode));
  AppendInt(&key, options.delta);
  AppendDoubleBits(&key, options.phi);
  AppendInt(&key, options.k);
  AppendInt(&key, options.strict_maximality ? 1 : 0);
  AppendInt(&key, options.collect_limit);
  AppendInt(&key, options.num_random_graphs);
  AppendInt(&key, static_cast<int64_t>(options.seed));
  return key;
}

int64_t QueryService::StartLocked(Pending* pending) {
  ++running_;
  if (running_ > stats_.peak_running) stats_.peak_running = running_;
  ++tenant_running_[pending->request.tenant];
  const int64_t sequence = next_sequence_++;
  QueryOptions& opts = pending->request.options;
  if (opts.match_list_cache == nullptr) opts.match_list_cache = &match_lists_;
  return sequence;
}

void QueryService::AdmitFromQueueLocked(
    std::vector<std::pair<std::shared_ptr<Pending>, int64_t>>* started,
    std::vector<ExpiredEntry>* expired) {
  const int64_t cap = config_.per_tenant_max_running;
  for (auto it = queue_.begin(); it != queue_.end();) {
    std::shared_ptr<Pending>& entry = *it;
    // A queued request whose Submit-anchored deadline already passed is
    // dead: resolve it here (kDeadlineExceeded at "serve.admit") and
    // never hand it a run slot — under overload, dead requests must not
    // displace live ones. Checked for every queue entry on every
    // rescan, even when the run caps are exhausted, so expiry is
    // detected no later than the next completion.
    if (entry->request.options.deadline.Expired()) {
      ExpiredEntry dead;
      dead.pending = std::move(entry);
      if (!dead.pending->dedup_key.empty()) {
        const auto inflight = inflight_.find(dead.pending->dedup_key);
        if (inflight != inflight_.end()) {
          dead.followers = std::move(inflight->second->followers);
          inflight_.erase(inflight);
        }
      }
      ++stats_.expired_in_queue;
      expired->push_back(std::move(dead));
      it = queue_.erase(it);
      continue;
    }
    if (running_ >= max_concurrent_) {
      ++it;
      continue;
    }
    const std::string& tenant = entry->request.tenant;
    if (cap > 0) {
      const auto t = tenant_running_.find(tenant);
      if (t != tenant_running_.end() && t->second >= cap) {
        // Over-cap tenant: skip, don't dequeue — FIFO within the
        // tenant, fairness across tenants.
        ++it;
        continue;
      }
    }
    std::shared_ptr<Pending> pending = std::move(entry);
    it = queue_.erase(it);
    started->emplace_back(pending, StartLocked(pending.get()));
  }
}

void QueryService::FulfillExpired(ExpiredEntry* entry) {
  const SteadyClock::time_point now = SteadyClock::now();
  auto dead = std::make_shared<QueryResult>();
  dead->mode = entry->pending->request.options.mode;
  dead->termination.code = TerminationCode::kDeadlineExceeded;
  dead->termination.stopped_at = failpoint::kServeAdmit;
  dead->termination.detail = "deadline expired while queued";
  dead->termination.work_completed = 0;
  const std::shared_ptr<const QueryResult> shared = std::move(dead);

  ServedResult served;
  served.result = shared;
  served.epoch = entry->pending->epoch;
  served.queue_seconds = SecondsBetween(entry->pending->submit_time, now);
  served.total_seconds = served.queue_seconds;
  entry->pending->promise.set_value(std::move(served));

  for (auto& follower : entry->followers) {
    ServedResult coalesced;
    coalesced.result = shared;
    coalesced.coalesced = true;
    coalesced.epoch = entry->pending->epoch;
    coalesced.queue_seconds = SecondsBetween(follower.second, now);
    coalesced.total_seconds = coalesced.queue_seconds;
    follower.first.set_value(std::move(coalesced));
  }
}

std::future<ServedResult> QueryService::Submit(ServeRequest request) {
  const SteadyClock::time_point submit_time = SteadyClock::now();
  QueryOptions& options = request.options;

  // Dedup / result-cache eligibility is decided on the caller-supplied
  // options, BEFORE service defaults are stamped: a shared run cannot
  // honor one caller's private token/deadline/budget, but the service's
  // own defaults are identical across the coalesced set by construction
  // (the shared run takes the earliest leader's anchor). Deciding after
  // stamping would silently disable dedup whenever defaults are
  // configured.
  const bool lifecycle_free = options.cancel_token == nullptr &&
                              !options.deadline.active() &&
                              !options.budget.active();

  // Service defaults for requests that carry no lifecycle bounds. The
  // deadline anchors here, before any queue wait, so a request that
  // queues past it resolves at "serve.admit" without doing work.
  if (!options.deadline.active() && config_.default_deadline_seconds > 0.0) {
    options.deadline =
        QueryDeadline::AfterSeconds(config_.default_deadline_seconds);
  }
  if (!options.budget.active() && config_.default_budget.active()) {
    options.budget = config_.default_budget;
  }
  // The service parallelizes across queries, not within them: worker
  // count bounds total parallelism, and results are byte-identical at
  // any thread count by engine contract.
  options.num_threads = 1;

  auto pending = std::make_shared<Pending>(std::move(request), submit_time);
  std::future<ServedResult> future = pending->promise.get_future();
  QueryOptions& opts = pending->request.options;

  // Admission failpoint: lets tests inject a termination outcome for
  // exactly the (N+1)-th Submit without timing races.
  if (failpoint::kFailpointsCompiledIn && failpoint::AnyArmed()) {
    QueryControl probe(nullptr, QueryDeadline(), WorkBudget());
    failpoint::Evaluate(failpoint::kServeAdmit, &probe);
    if (probe.ShouldStop()) {
      auto injected = std::make_shared<QueryResult>();
      injected->mode = opts.mode;
      injected->termination = probe.Finish(0);
      ServedResult served;
      served.result = std::move(injected);
      served.rejected = true;
      served.total_seconds = SecondsBetween(submit_time, SteadyClock::now());
      served.queue_seconds = served.total_seconds;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.submitted;
        ++stats_.rejected;
        served.epoch = live_epoch_;
      }
      pending->promise.set_value(std::move(served));
      return future;
    }
  }

  bool rejected = false;
  bool cache_hit = false;
  ServedResult cached;
  std::vector<std::pair<std::shared_ptr<Pending>, int64_t>> started;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;

    // Capture the live snapshot: this request runs against it no
    // matter how many seals happen while it queues.
    pending->snapshot = live_graph_;
    pending->epoch = live_epoch_;

    if (lifecycle_free &&
        (config_.enable_dedup || config_.enable_result_cache)) {
      std::string key = DedupKey(pending->request.motif, opts, pending->epoch);

      // Completed-result cache first: a finished identical run on this
      // very epoch answers immediately, no engine run, no queue slot.
      if (config_.enable_result_cache) {
        const CachedResult* hit = result_cache_.Find(key);
        if (hit != nullptr) {
          ++stats_.result_cache_hits;
          cached.result = hit->result;
          cached.from_result_cache = true;
          cached.admission_sequence = hit->sequence;
          cached.epoch = pending->epoch;
          cache_hit = true;
        } else {
          pending->result_key = key;
        }
      }

      // In-flight dedup: attach to an identical running/queued leader.
      if (!cache_hit && config_.enable_dedup) {
        const auto it = inflight_.find(key);
        if (it != inflight_.end()) {
          ++stats_.coalesced;
          it->second->followers.emplace_back(std::move(pending->promise),
                                             submit_time);
          return future;
        }
        inflight_.emplace(key, std::make_shared<Inflight>());
        pending->dedup_key = std::move(key);
      }
    }

    if (!cache_hit) {
      const int64_t cap = config_.per_tenant_max_running;
      const auto t = tenant_running_.find(pending->request.tenant);
      const bool tenant_ok =
          cap <= 0 || t == tenant_running_.end() || t->second < cap;
      if (running_ < max_concurrent_ && tenant_ok) {
        started.emplace_back(pending, StartLocked(pending.get()));
      } else if (static_cast<int>(queue_.size()) < config_.max_queue_depth) {
        queue_.push_back(pending);
        const int64_t depth = static_cast<int64_t>(queue_.size());
        if (depth > stats_.peak_queue_depth) stats_.peak_queue_depth = depth;
      } else {
        ++stats_.rejected;
        rejected = true;
        if (!pending->dedup_key.empty()) inflight_.erase(pending->dedup_key);
      }
    }
  }

  if (cache_hit) {
    cached.total_seconds = SecondsBetween(submit_time, SteadyClock::now());
    pending->promise.set_value(std::move(cached));
    return future;
  }

  if (rejected) {
    auto full = std::make_shared<QueryResult>();
    full->mode = opts.mode;
    full->termination.code = TerminationCode::kRejected;
    full->termination.stopped_at = failpoint::kServeAdmit;
    full->termination.detail = "admission queue full";
    full->termination.work_completed = 0;
    ServedResult served;
    served.result = std::move(full);
    served.rejected = true;
    served.epoch = pending->epoch;
    served.total_seconds = SecondsBetween(submit_time, SteadyClock::now());
    served.queue_seconds = served.total_seconds;
    pending->promise.set_value(std::move(served));
    return future;
  }

  // Outside mu_: a 1-worker pool runs the task inline, and RunOne
  // re-enters the lock.
  for (auto& entry : started) {
    std::shared_ptr<Pending> p = entry.first;
    const int64_t sequence = entry.second;
    pool_.Submit([this, p, sequence] { RunOne(p, sequence); });
  }
  return future;
}

void QueryService::RunOne(std::shared_ptr<Pending> pending, int64_t sequence) {
  const SteadyClock::time_point run_start = SteadyClock::now();
  if (pending->request.on_start) pending->request.on_start();
  // The engine binds to this request's captured snapshot — not the
  // currently published one — so a seal mid-run changes nothing for
  // this query, and the shared_ptr keeps the snapshot alive.
  const QueryEngine engine(*pending->snapshot);
  QueryResult result =
      engine.Run(pending->request.motif, pending->request.options);
  const std::shared_ptr<const QueryResult> shared =
      std::make_shared<const QueryResult>(std::move(result));
  const SteadyClock::time_point run_end = SteadyClock::now();

  std::vector<std::pair<std::promise<ServedResult>, SteadyClock::time_point>>
      followers;
  std::vector<std::pair<std::shared_ptr<Pending>, int64_t>> started;
  std::vector<ExpiredEntry> expired;
  std::vector<CachedResult> evicted;  // released after mu_
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.completed;
    --running_;
    auto t = tenant_running_.find(pending->request.tenant);
    if (t != tenant_running_.end() && --t->second <= 0) {
      tenant_running_.erase(t);
    }
    if (!pending->dedup_key.empty()) {
      const auto it = inflight_.find(pending->dedup_key);
      if (it != inflight_.end()) {
        followers = std::move(it->second->followers);
        inflight_.erase(it);
      }
    }
    // Publish to the completed-result cache — only full results (a
    // deadline-stopped partial must not answer a request that would
    // have completed), and only while this run's epoch is still the
    // live one (a seal between run and publish cleared the cache; a
    // stale insert would leak a pre-seal result past its seal).
    // A full cache makes room by evicting its least recently used
    // result, so it keeps serving the recent working set.
    if (!pending->result_key.empty() && shared->termination.complete() &&
        pending->epoch == live_epoch_ &&
        config_.result_cache_max_entries > 0 &&
        result_cache_.Insert(pending->result_key,
                             CachedResult{shared, sequence})) {
      while (result_cache_.size() > config_.result_cache_max_entries) {
        evicted.push_back(result_cache_.PopOldest());
      }
    }
    AdmitFromQueueLocked(&started, &expired);
    if (running_ == 0 && queue_.empty()) drained_.notify_all();
  }

  ServedResult served;
  served.result = shared;
  served.epoch = pending->epoch;
  served.admission_sequence = sequence;
  served.queue_seconds = SecondsBetween(pending->submit_time, run_start);
  served.total_seconds = SecondsBetween(pending->submit_time, run_end);
  pending->promise.set_value(std::move(served));

  for (auto& follower : followers) {
    ServedResult coalesced;
    coalesced.result = shared;
    coalesced.coalesced = true;
    coalesced.epoch = pending->epoch;
    coalesced.admission_sequence = sequence;
    coalesced.queue_seconds = SecondsBetween(follower.second, run_start);
    coalesced.total_seconds = SecondsBetween(follower.second, run_end);
    follower.first.set_value(std::move(coalesced));
  }

  for (ExpiredEntry& entry : expired) FulfillExpired(&entry);

  for (auto& entry : started) {
    std::shared_ptr<Pending> next = entry.first;
    const int64_t next_sequence = entry.second;
    pool_.Submit([this, next, next_sequence] { RunOne(next, next_sequence); });
  }
}

ServiceStats QueryService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats out = stats_;
  // Hits first: both only grow, so the pair read never shows more hits
  // than lookups.
  out.match_list_hits = match_lists_.hits();
  out.match_list_lookups = match_lists_.lookups();
  out.match_list_bytes = static_cast<int64_t>(match_lists_.bytes());
  return out;
}

}  // namespace flowmotif
