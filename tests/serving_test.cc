// The serving layer's contract (DESIGN.md Sec. 11): a QueryService
// fans many concurrent queries over one immutable graph and must stay
// byte-identical to solo QueryEngine runs — the match-list cache and
// the scheduler may change where match lists are found and when
// queries run, never what they return. Admission control, tenant
// fairness, in-flight dedup, and config-default deadlines are pinned
// down with gated (never sleep-racy) schedules. The concurrent
// stress test is a TSan target (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/motif_catalog.h"
#include "engine/query_engine.h"
#include "gen/presets.h"
#include "serve/query_service.h"
#include "test_util.h"
#include "util/cancellation.h"
#include "util/failpoint.h"

namespace flowmotif {
namespace {

const TimeSeriesGraph& SharedGraph() {
  static const TimeSeriesGraph* graph = [] {
    return new TimeSeriesGraph(GenerateDataset(AllPresets().front(), 0.05));
  }();
  return *graph;
}

Timestamp SharedDelta() { return AllPresets().front().default_delta; }

/// A reusable open-once gate for deterministic schedules.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// The deterministic payload comparison: everything a served query
/// returns must equal the solo run, in every mode.
void ExpectSameResult(const QueryResult& served, const QueryResult& solo,
                      const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(served.mode, solo.mode);
  EXPECT_EQ(served.stats.num_instances, solo.stats.num_instances);
  EXPECT_EQ(served.stats.num_structural_matches,
            solo.stats.num_structural_matches);
  EXPECT_EQ(served.stats.num_phi_prunes, solo.stats.num_phi_prunes);
  ASSERT_EQ(served.instances.size(), solo.instances.size());
  for (size_t i = 0; i < served.instances.size(); ++i) {
    EXPECT_EQ(served.instances[i], solo.instances[i]) << "instance " << i;
  }
  ASSERT_EQ(served.topk.size(), solo.topk.size());
  for (size_t i = 0; i < served.topk.size(); ++i) {
    EXPECT_EQ(served.topk[i].flow, solo.topk[i].flow) << "topk " << i;
    EXPECT_EQ(served.topk[i].instance, solo.topk[i].instance) << "topk " << i;
  }
  EXPECT_EQ(served.top1.found, solo.top1.found);
  EXPECT_EQ(served.top1.max_flow, solo.top1.max_flow);
  if (served.top1.found && solo.top1.found) {
    EXPECT_EQ(served.top1.best, solo.top1.best);
  }
  if (served.mode == QueryMode::kSignificance) {
    EXPECT_EQ(served.significance.real_count, solo.significance.real_count);
    EXPECT_EQ(served.significance.random_counts,
              solo.significance.random_counts);
    EXPECT_EQ(served.significance.z_score, solo.significance.z_score);
    EXPECT_EQ(served.significance.p_value, solo.significance.p_value);
  }
}

TEST(ServingTest, ConcurrentMixedQueriesAreByteIdenticalToSoloRuns) {
  // The stress path: two motifs (interior and not), two deltas, every
  // query mode, each submitted three times so later rounds reuse the
  // cached match lists — every result must equal a solo 1-thread engine
  // run without any serving machinery. At 2 workers the runs share the
  // service's helper pool (where the hardware has threads beyond the
  // two), kSignificance's pooled skeleton recording included; at 4 the
  // cap may cover every hardware thread and leave no helper.
  struct Case {
    const char* motif_name;
    QueryOptions options;
  };
  std::vector<Case> cases;
  const Timestamp delta = SharedDelta();
  for (const char* motif : {"M(3,2)", "M(5,4)"}) {
    for (const Timestamp d : {delta, delta / 2}) {
      QueryOptions count;
      count.mode = QueryMode::kCount;
      count.delta = d;
      cases.push_back({motif, count});

      QueryOptions enumerate;
      enumerate.mode = QueryMode::kEnumerate;
      enumerate.delta = d;
      enumerate.collect_limit = -1;
      cases.push_back({motif, enumerate});

      QueryOptions topk;
      topk.mode = QueryMode::kTopK;
      topk.delta = d;
      topk.k = 5;
      cases.push_back({motif, topk});

      QueryOptions top1;
      top1.mode = QueryMode::kTop1;
      top1.delta = d;
      cases.push_back({motif, top1});
    }
  }
  QueryOptions significance;
  significance.mode = QueryMode::kSignificance;
  significance.delta = delta;
  significance.num_random_graphs = 4;
  significance.seed = 7;
  cases.push_back({"M(3,2)", significance});

  // Solo references: fresh engine, serial.
  const QueryEngine solo_engine(SharedGraph());
  std::vector<QueryResult> solo;
  solo.reserve(cases.size());
  for (const Case& c : cases) {
    solo.push_back(
        solo_engine.Run(*MotifCatalog::ByName(c.motif_name), c.options));
    ASSERT_TRUE(solo.back().termination.complete());
  }

  for (const int workers : {4, 2}) {
    ServiceConfig config;
    config.num_workers = workers;
    config.max_concurrent = workers;
    config.enable_dedup = false;        // every submission must really run
    config.enable_result_cache = false;  // repeats across rounds included
    QueryService service(SharedGraph(), config);

    constexpr int kRounds = 3;
    std::vector<std::future<ServedResult>> futures;
    for (int round = 0; round < kRounds; ++round) {
      for (const Case& c : cases) {
        ServeRequest request{*MotifCatalog::ByName(c.motif_name), c.options};
        futures.push_back(service.Submit(std::move(request)));
      }
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      const ServedResult served = futures[i].get();
      ASSERT_FALSE(served.rejected);
      ASSERT_TRUE(served.result->termination.complete())
          << served.result->termination.ToString();
      ExpectSameResult(*served.result, solo[i % cases.size()],
                       std::to_string(workers) + " workers, submission " +
                           std::to_string(i));
    }

    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.submitted, static_cast<int64_t>(futures.size()));
    EXPECT_EQ(stats.completed, static_cast<int64_t>(futures.size()));
    EXPECT_EQ(stats.rejected, 0);
  }
}

TEST(ServingTest, ServedRunsBorrowTheHelperPool) {
  // A 2-worker service starts one helper per hardware thread beyond its
  // running cap, and a served run computes on its worker plus those
  // helpers, whatever num_threads the request carries.
  ServiceConfig config;
  config.num_workers = 2;
  config.max_concurrent = 2;
  QueryService service(SharedGraph(), config);
  QueryOptions options;
  options.mode = QueryMode::kCount;
  options.delta = SharedDelta();
  options.num_threads = -1;  // ignored on a borrowed pool, not rejected
  const ServedResult served =
      service.Submit({*MotifCatalog::ByName("M(3,2)"), options}).get();
  ASSERT_TRUE(served.result->termination.complete())
      << served.result->termination.ToString();
  const int expected = 1 + std::max(0, ThreadPool::DefaultParallelism() - 2);
  EXPECT_EQ(served.result->threads_used, expected);
  if (ThreadPool::DefaultParallelism() > 2) {
    EXPECT_GT(served.result->threads_used, 1);
  }
}

TEST(ServingTest, ManyDistinctDeltasMatchSoloRuns) {
  // 200 distinct deltas through a 1-worker service on a tiny graph,
  // then the first delta again: every result equals a solo run, and
  // every submission runs the engine.
  const TimeSeriesGraph graph = testing_util::PaperFig2Graph();
  const Motif motif = *MotifCatalog::ByName("M(3,3)");
  ServiceConfig config;
  config.num_workers = 1;
  config.enable_dedup = false;
  config.enable_result_cache = false;  // the repeat must re-run
  QueryService service(graph, config);
  const QueryEngine solo_engine(graph);

  const auto options_for = [](Timestamp delta) {
    QueryOptions options;
    options.mode = delta % 3 == 0   ? QueryMode::kCount
                   : delta % 3 == 1 ? QueryMode::kTopK
                                    : QueryMode::kTop1;
    options.delta = delta;
    options.k = 2;
    return options;
  };
  const auto serve_and_check = [&](Timestamp delta) {
    const QueryOptions options = options_for(delta);
    const ServedResult served =
        service.Submit(ServeRequest{motif, options}).get();
    ASSERT_TRUE(served.result->termination.complete());
    ExpectSameResult(*served.result, solo_engine.Run(motif, options),
                     "delta " + std::to_string(delta));
  };

  for (Timestamp delta = 1; delta <= 200; ++delta) {
    serve_and_check(delta);
    if (testing::Test::HasFailure()) return;
  }
  serve_and_check(1);
  EXPECT_EQ(service.Stats().completed, 201);
}

TEST(ServingTest, IdenticalInflightSubmissionsCoalesce) {
  ServiceConfig config;
  config.num_workers = 2;
  config.max_concurrent = 2;
  QueryService service(SharedGraph(), config);

  Gate gate;
  ServeRequest leader{*MotifCatalog::ByName("M(3,2)"), QueryOptions()};
  leader.options.mode = QueryMode::kCount;
  leader.options.delta = SharedDelta();
  leader.on_start = [&gate] { gate.Wait(); };

  std::future<ServedResult> leader_future = service.Submit(std::move(leader));

  constexpr int kFollowers = 5;
  std::vector<std::future<ServedResult>> followers;
  for (int i = 0; i < kFollowers; ++i) {
    ServeRequest follower{*MotifCatalog::ByName("M(3,2)"), QueryOptions()};
    follower.options.mode = QueryMode::kCount;
    follower.options.delta = SharedDelta();
    followers.push_back(service.Submit(std::move(follower)));
  }
  gate.Open();

  const ServedResult led = leader_future.get();
  ASSERT_TRUE(led.result->termination.complete());
  EXPECT_FALSE(led.coalesced);
  for (std::future<ServedResult>& f : followers) {
    const ServedResult follower = f.get();
    EXPECT_TRUE(follower.coalesced);
    EXPECT_EQ(follower.result.get(), led.result.get());  // shared, not rerun
    EXPECT_EQ(follower.admission_sequence, led.admission_sequence);
  }

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 1 + kFollowers);
  EXPECT_EQ(stats.completed, 1);  // one engine run served all six
  EXPECT_EQ(stats.coalesced, kFollowers);
}

TEST(ServingTest, FullAdmissionQueueRejectsInsteadOfBlocking) {
  ServiceConfig config;
  config.num_workers = 2;
  config.max_concurrent = 1;
  config.max_queue_depth = 1;
  config.enable_dedup = false;
  QueryService service(SharedGraph(), config);

  Gate gate;
  auto request = [&gate](bool gated) {
    ServeRequest r{*MotifCatalog::ByName("M(3,2)"), QueryOptions()};
    r.options.mode = QueryMode::kCount;
    r.options.delta = SharedDelta();
    if (gated) r.on_start = [&gate] { gate.Wait(); };
    return r;
  };

  std::future<ServedResult> running = service.Submit(request(true));
  std::future<ServedResult> queued = service.Submit(request(false));
  std::future<ServedResult> overflow = service.Submit(request(false));

  // The overflow submission resolves immediately — before the gate
  // opens — with the kRejected termination at the admission site.
  ASSERT_EQ(overflow.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  const ServedResult rejected = overflow.get();
  EXPECT_TRUE(rejected.rejected);
  EXPECT_EQ(rejected.result->termination.code, TerminationCode::kRejected);
  EXPECT_EQ(rejected.result->termination.stopped_at, failpoint::kServeAdmit);
  EXPECT_EQ(rejected.admission_sequence, -1);

  gate.Open();
  EXPECT_TRUE(running.get().result->termination.complete());
  EXPECT_TRUE(queued.get().result->termination.complete());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.completed, 2);
}

TEST(ServingTest, TenantCapSkipsQueuedTenantSoOthersRunFirst) {
  ServiceConfig config;
  config.num_workers = 2;
  config.max_concurrent = 2;
  config.per_tenant_max_running = 1;
  config.enable_dedup = false;
  QueryService service(SharedGraph(), config);

  Gate gate;
  auto request = [&gate](const std::string& tenant, bool gated) {
    ServeRequest r{*MotifCatalog::ByName("M(3,2)"), QueryOptions()};
    r.options.mode = QueryMode::kCount;
    r.options.delta = SharedDelta();
    r.tenant = tenant;
    if (gated) r.on_start = [&gate] { gate.Wait(); };
    return r;
  };

  // A1 runs (gated). A2 queues: tenant A is at its cap. B1, submitted
  // LATER than A2, must start anyway — the admission scan skips the
  // over-cap tenant instead of blocking the queue head.
  std::future<ServedResult> a1 = service.Submit(request("A", true));
  std::future<ServedResult> a2 = service.Submit(request("A", false));
  std::future<ServedResult> b1 = service.Submit(request("B", false));

  const ServedResult b1_result = b1.get();  // completes while A1 is gated
  ASSERT_TRUE(b1_result.result->termination.complete());

  gate.Open();
  const ServedResult a1_result = a1.get();
  const ServedResult a2_result = a2.get();
  ASSERT_TRUE(a1_result.result->termination.complete());
  ASSERT_TRUE(a2_result.result->termination.complete());

  // Start order: A1 (0), B1 (1) jumped the queued A2 (2).
  EXPECT_EQ(a1_result.admission_sequence, 0);
  EXPECT_EQ(b1_result.admission_sequence, 1);
  EXPECT_EQ(a2_result.admission_sequence, 2);
}

TEST(ServingTest, ConfigDefaultDeadlineCoversQueueWait) {
  ServiceConfig config;
  config.num_workers = 1;
  config.default_deadline_seconds = 0.02;
  config.enable_dedup = false;
  QueryService service(SharedGraph(), config);

  // The hook delays the run past the Submit-anchored default deadline:
  // the engine's first cancellation point catches it before any work.
  ServeRequest late{*MotifCatalog::ByName("M(3,2)"), QueryOptions()};
  late.options.mode = QueryMode::kCount;
  late.options.delta = SharedDelta();
  late.on_start = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  };
  const ServedResult served = service.Submit(std::move(late)).get();
  EXPECT_FALSE(served.rejected);
  EXPECT_EQ(served.result->termination.code,
            TerminationCode::kDeadlineExceeded);
  EXPECT_EQ(served.result->termination.stopped_at, failpoint::kEngineStart);
  EXPECT_EQ(served.result->termination.work_completed, 0);

  // An explicit per-request deadline overrides the default.
  ServeRequest generous{*MotifCatalog::ByName("M(3,2)"), QueryOptions()};
  generous.options.mode = QueryMode::kCount;
  generous.options.delta = SharedDelta();
  generous.options.deadline = QueryDeadline::AfterSeconds(3600.0);
  generous.on_start = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  };
  const ServedResult completed = service.Submit(std::move(generous)).get();
  EXPECT_TRUE(completed.result->termination.complete());
}

TEST(ServingTest, DedupSurvivesServiceDefaultLifecycleBounds) {
  // Regression (PR 10): dedup eligibility must be decided on the
  // caller-supplied options BEFORE service defaults are stamped.
  // Pre-fix, configuring default_deadline_seconds / default_budget
  // stamped every request with an active deadline/budget first, so the
  // eligibility check rejected every request and dedup was silently
  // disabled service-wide.
  ServiceConfig config;
  config.num_workers = 2;
  config.max_concurrent = 2;
  config.default_deadline_seconds = 3600.0;  // generous: nothing expires
  config.default_budget.max_matches = 1 << 30;
  config.enable_result_cache = false;  // isolate in-flight dedup
  QueryService service(SharedGraph(), config);

  Gate gate;
  ServeRequest leader{*MotifCatalog::ByName("M(3,2)"), QueryOptions()};
  leader.options.mode = QueryMode::kCount;
  leader.options.delta = SharedDelta();
  leader.on_start = [&gate] { gate.Wait(); };
  std::future<ServedResult> leader_future = service.Submit(std::move(leader));

  // Identical caller options (no explicit lifecycle state): must attach
  // to the in-flight leader even though both carry the service-default
  // deadline + budget — those are identical across the coalesced set by
  // construction, and the shared run takes the leader's earlier anchor.
  ServeRequest follower{*MotifCatalog::ByName("M(3,2)"), QueryOptions()};
  follower.options.mode = QueryMode::kCount;
  follower.options.delta = SharedDelta();
  std::future<ServedResult> follower_future =
      service.Submit(std::move(follower));
  gate.Open();

  const ServedResult led = leader_future.get();
  const ServedResult coalesced = follower_future.get();
  ASSERT_TRUE(led.result->termination.complete());
  EXPECT_TRUE(coalesced.coalesced);
  EXPECT_EQ(coalesced.result.get(), led.result.get());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.coalesced, 1);
  EXPECT_EQ(stats.completed, 1);  // one engine run served both

  // An explicit per-request deadline still opts out: private lifecycle
  // state is never shared.
  Gate gate2;
  ServeRequest gated{*MotifCatalog::ByName("M(3,2)"), QueryOptions()};
  gated.options.mode = QueryMode::kCount;
  gated.options.delta = SharedDelta();
  gated.on_start = [&gate2] { gate2.Wait(); };
  std::future<ServedResult> gated_future = service.Submit(std::move(gated));
  ServeRequest private_deadline{*MotifCatalog::ByName("M(3,2)"),
                                QueryOptions()};
  private_deadline.options.mode = QueryMode::kCount;
  private_deadline.options.delta = SharedDelta();
  private_deadline.options.deadline = QueryDeadline::AfterSeconds(3600.0);
  std::future<ServedResult> private_future =
      service.Submit(std::move(private_deadline));
  const ServedResult ran_alone = private_future.get();  // runs on worker 2
  EXPECT_FALSE(ran_alone.coalesced);
  gate2.Open();
  EXPECT_TRUE(gated_future.get().result->termination.complete());
  EXPECT_EQ(service.Stats().coalesced, 1);  // unchanged
}

TEST(ServingTest, QueuedRequestPastDeadlineResolvesAtAdmissionNotOnAWorker) {
  // Regression (PR 10): a queued request whose Submit-anchored deadline
  // expired must be resolved by the admission scan — kDeadlineExceeded
  // at "serve.admit" — without ever occupying a worker. Pre-fix,
  // AdmitFromQueueLocked never consulted the deadline: the dead request
  // was dispatched, its on_start hook ran, and the engine reported the
  // expiry at "engine.start" from a run slot a live request could have
  // used.
  ServiceConfig config;
  config.num_workers = 2;
  config.max_concurrent = 1;
  config.enable_dedup = false;
  config.enable_result_cache = false;
  QueryService service(SharedGraph(), config);

  Gate gate;
  ServeRequest blocker{*MotifCatalog::ByName("M(3,2)"), QueryOptions()};
  blocker.options.mode = QueryMode::kCount;
  blocker.options.delta = SharedDelta();
  blocker.on_start = [&gate] { gate.Wait(); };
  std::future<ServedResult> blocker_future = service.Submit(std::move(blocker));

  std::atomic<bool> dead_request_started{false};
  ServeRequest dead{*MotifCatalog::ByName("M(3,2)"), QueryOptions()};
  dead.options.mode = QueryMode::kCount;
  dead.options.delta = SharedDelta();
  dead.options.deadline = QueryDeadline::AfterMillis(5);
  dead.on_start = [&dead_request_started] { dead_request_started = true; };
  std::future<ServedResult> dead_future = service.Submit(std::move(dead));

  // Let the queued request's deadline lapse while the blocker holds the
  // only run slot, then release the blocker.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  gate.Open();

  const ServedResult expired = dead_future.get();
  EXPECT_EQ(expired.result->termination.code,
            TerminationCode::kDeadlineExceeded);
  EXPECT_EQ(expired.result->termination.stopped_at, failpoint::kServeAdmit);
  EXPECT_EQ(expired.result->termination.work_completed, 0);
  EXPECT_EQ(expired.admission_sequence, -1);  // never started
  EXPECT_FALSE(dead_request_started.load());  // never reached a worker

  EXPECT_TRUE(blocker_future.get().result->termination.complete());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.expired_in_queue, 1);
  EXPECT_EQ(stats.completed, 1);  // only the blocker ran
}

TEST(ServingTest, ResultCacheServesRepeatsAfterCompletion) {
  ServiceConfig config;
  config.num_workers = 1;  // serial: the repeat submits after completion
  config.enable_dedup = false;
  QueryService service(SharedGraph(), config);

  ServeRequest request{*MotifCatalog::ByName("M(3,2)"), QueryOptions()};
  request.options.mode = QueryMode::kCount;
  request.options.delta = SharedDelta();

  const ServedResult first = service.Submit(ServeRequest(request)).get();
  ASSERT_TRUE(first.result->termination.complete());
  EXPECT_FALSE(first.from_result_cache);

  // Identical repeat after completion: answered from the cache — same
  // shared result object, no second engine run, producer's sequence.
  const ServedResult repeat = service.Submit(ServeRequest(request)).get();
  EXPECT_TRUE(repeat.from_result_cache);
  EXPECT_EQ(repeat.result.get(), first.result.get());
  EXPECT_EQ(repeat.admission_sequence, first.admission_sequence);

  // A result-affecting option change misses.
  ServeRequest other(request);
  other.options.mode = QueryMode::kTopK;
  other.options.k = 3;
  const ServedResult different = service.Submit(std::move(other)).get();
  EXPECT_FALSE(different.from_result_cache);

  // Private lifecycle state opts out of the cache, same as dedup.
  ServeRequest bounded(request);
  bounded.options.deadline = QueryDeadline::AfterSeconds(3600.0);
  const ServedResult uncached = service.Submit(std::move(bounded)).get();
  EXPECT_FALSE(uncached.from_result_cache);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.result_cache_hits, 1);
  EXPECT_EQ(stats.completed, 3);  // first + different + uncached
}

TEST(ServingTest, FullResultCacheEvictsItsLeastRecentlyUsedResult) {
  // A full completed-result cache makes room instead of declining
  // inserts: with room for two results, running A, B and C leaves B and
  // C cached, so a repeat of C is free and a repeat of A runs again.
  ServiceConfig config;
  config.num_workers = 1;  // serial: each repeat submits after completion
  config.enable_dedup = false;
  config.result_cache_max_entries = 2;
  QueryService service(SharedGraph(), config);
  const auto submit = [&service](const char* motif) {
    ServeRequest request{*MotifCatalog::ByName(motif), QueryOptions()};
    request.options.mode = QueryMode::kCount;
    request.options.delta = SharedDelta();
    return service.Submit(std::move(request)).get();
  };

  for (const char* motif : {"M(3,2)", "M(3,3)", "M(4,3)"}) {
    EXPECT_FALSE(submit(motif).from_result_cache) << motif;
  }
  EXPECT_TRUE(submit("M(4,3)").from_result_cache);
  EXPECT_FALSE(submit("M(3,2)").from_result_cache);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.result_cache_hits, 1);
  EXPECT_EQ(stats.completed, 4);
}

TEST(ServingTest, RepeatedMotifsReuseOneMatchListAndEqualSoloRuns) {
  // Every catalog motif x {kCount, kTopK, kTop1, kEnumerate with a
  // collect limit}, each read submitted twice through two workers, with
  // dedup and the result cache off so every submission runs the engine.
  // The first reads of a motif fill the match-list cache and the rest
  // run no phase P1; every result equals a solo engine run.
  std::vector<std::pair<Motif, QueryOptions>> reads;
  for (const Motif& motif : MotifCatalog::All()) {
    for (const QueryMode mode : {QueryMode::kCount, QueryMode::kTopK,
                                 QueryMode::kTop1, QueryMode::kEnumerate}) {
      QueryOptions options;
      options.mode = mode;
      options.delta = SharedDelta();
      options.k = 5;
      options.collect_limit = 20;
      reads.emplace_back(motif, options);
    }
  }
  const QueryEngine solo_engine(SharedGraph());
  std::vector<QueryResult> solo;
  for (const auto& read : reads) {
    solo.push_back(solo_engine.Run(read.first, read.second));
  }

  ServiceConfig config;
  config.num_workers = 2;
  config.max_concurrent = 2;
  config.max_queue_depth = static_cast<int>(2 * reads.size());
  config.enable_dedup = false;
  config.enable_result_cache = false;
  QueryService service(SharedGraph(), config);
  std::vector<std::future<ServedResult>> futures;
  for (int round = 0; round < 2; ++round) {
    for (const auto& read : reads) {
      futures.push_back(service.Submit(ServeRequest{read.first, read.second}));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const ServedResult served = futures[i].get();
    ASSERT_TRUE(served.result->termination.complete())
        << served.result->termination.ToString();
    ExpectSameResult(*served.result, solo[i % reads.size()],
                     "submission " + std::to_string(i));
  }

  const ServiceStats stats = service.Stats();
  const int64_t num_motifs = static_cast<int64_t>(MotifCatalog::All().size());
  EXPECT_EQ(stats.match_list_lookups, static_cast<int64_t>(futures.size()));
  // A motif misses at most once per worker: a third read of it starts
  // only after one of the first two published the list.
  EXPECT_GE(stats.match_list_hits,
            stats.match_list_lookups - config.num_workers * num_motifs);
  EXPECT_GT(stats.match_list_bytes, 0);
  EXPECT_LE(stats.match_list_bytes,
            static_cast<int64_t>(QueryService::kMatchListCacheBytes));
}

TEST(ServingTest, MaxMatchesCutsACachedListLikeTheCappedScan) {
  // Under WorkBudget::max_matches below the list length a miss runs the
  // capped scan and publishes nothing, and a hit runs only the first
  // max_matches matches of the cached list. Both equal the solo capped
  // run: payload, kBudgetExceeded at "p1.unit", and work_completed.
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  const QueryEngine solo_engine(SharedGraph());
  QueryOptions plain;
  plain.mode = QueryMode::kCount;
  plain.delta = SharedDelta();
  const int64_t total =
      solo_engine.Run(motif, plain).stats.num_structural_matches;
  const int64_t cap = total / 3;
  ASSERT_GT(cap, 0);

  ServiceConfig config;
  config.num_workers = 1;
  config.enable_dedup = false;
  config.enable_result_cache = false;
  QueryService service(SharedGraph(), config);

  const auto check_capped = [&](const std::string& context) {
    for (const QueryMode mode : {QueryMode::kCount, QueryMode::kTopK,
                                 QueryMode::kTop1, QueryMode::kEnumerate}) {
      QueryOptions options = plain;
      options.mode = mode;
      options.k = 5;
      options.collect_limit = -1;
      options.budget.max_matches = cap;
      const QueryResult solo = solo_engine.Run(motif, options);
      const ServedResult served =
          service.Submit(ServeRequest{motif, options}).get();
      const std::string where =
          context + " mode " + std::to_string(static_cast<int>(mode));
      ExpectSameResult(*served.result, solo, where);
      const Termination& got = served.result->termination;
      EXPECT_EQ(got.code, TerminationCode::kBudgetExceeded) << where;
      EXPECT_EQ(got.code, solo.termination.code) << where;
      EXPECT_EQ(got.stopped_at, failpoint::kP1Unit) << where;
      EXPECT_EQ(got.stopped_at, solo.termination.stopped_at) << where;
      EXPECT_EQ(got.detail, solo.termination.detail) << where;
      EXPECT_EQ(got.work_completed, cap) << where;
      EXPECT_EQ(got.work_completed, solo.termination.work_completed) << where;
    }
  };

  check_capped("miss");
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.match_list_hits, 0);
  EXPECT_EQ(stats.match_list_bytes, 0);  // a capped prefix is never kept

  // An uncapped read publishes the complete list; capped reads now hit.
  ASSERT_TRUE(service.Submit(ServeRequest{motif, plain})
                  .get()
                  .result->termination.complete());
  EXPECT_GT(service.Stats().match_list_bytes, 0);
  check_capped("hit");
  stats = service.Stats();
  EXPECT_EQ(stats.match_list_hits, 4);
}

TEST(ServingTest, RunStoppedBeforeItsListIsCompletePublishesNothing) {
  // Only a complete match list is published: a pre-cancelled run stops
  // before it asks the cache, and a run stopped inside phase P1 leaves
  // it empty, so the next clean read misses and fills it.
  ServiceConfig config;
  config.num_workers = 1;
  config.enable_dedup = false;
  config.enable_result_cache = false;
  QueryService service(SharedGraph(), config);
  QueryOptions options;
  options.mode = QueryMode::kCount;
  options.delta = SharedDelta();
  const Motif motif = *MotifCatalog::ByName("M(3,2)");

  CancellationToken token;
  token.Cancel("caller gave up");
  QueryOptions cancelled = options;
  cancelled.cancel_token = &token;
  const ServedResult early =
      service.Submit(ServeRequest{motif, cancelled}).get();
  EXPECT_EQ(early.result->termination.code, TerminationCode::kCancelled);
  EXPECT_EQ(service.Stats().match_list_bytes, 0);

  if (failpoint::kFailpointsCompiledIn) {
    failpoint::DisarmAll();
    failpoint::Config fp;
    fp.action = failpoint::Action::kCancel;
    fp.hits_before_trigger = 10;
    failpoint::Arm(failpoint::kP1Unit, fp);
    const ServedResult stopped =
        service.Submit(ServeRequest{motif, options}).get();
    failpoint::DisarmAll();
    EXPECT_EQ(stopped.result->termination.code, TerminationCode::kCancelled);
    EXPECT_EQ(stopped.result->termination.stopped_at, failpoint::kP1Unit);
    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.match_list_lookups, 1);
    EXPECT_EQ(stats.match_list_bytes, 0);
  }

  const int64_t lookups = service.Stats().match_list_lookups;
  const ServedResult clean = service.Submit(ServeRequest{motif, options}).get();
  ASSERT_TRUE(clean.result->termination.complete());
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.match_list_lookups, lookups + 1);
  EXPECT_EQ(stats.match_list_hits, 0);
  EXPECT_GT(stats.match_list_bytes, 0);
  const ServedResult repeat = service.Submit(ServeRequest{motif, options}).get();
  ExpectSameResult(*repeat.result, *clean.result, "repeat after the fill");
  EXPECT_EQ(service.Stats().match_list_hits, 1);
}

TEST(ServingTest, AdmissionFailpointInjectsTermination) {
  if (!failpoint::kFailpointsCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  failpoint::DisarmAll();
  ServiceConfig config;
  config.num_workers = 1;
  QueryService service(SharedGraph(), config);

  failpoint::Config fp;
  fp.action = failpoint::Action::kCancel;
  failpoint::Arm(failpoint::kServeAdmit, fp);
  ServeRequest request{*MotifCatalog::ByName("M(3,2)"), QueryOptions()};
  request.options.mode = QueryMode::kCount;
  request.options.delta = SharedDelta();
  const ServedResult injected = service.Submit(std::move(request)).get();
  failpoint::DisarmAll();

  EXPECT_TRUE(injected.rejected);
  EXPECT_EQ(injected.result->termination.code, TerminationCode::kCancelled);
  EXPECT_EQ(injected.result->termination.stopped_at, failpoint::kServeAdmit);

  // The service stays serviceable.
  ServeRequest clean{*MotifCatalog::ByName("M(3,2)"), QueryOptions()};
  clean.options.mode = QueryMode::kCount;
  clean.options.delta = SharedDelta();
  EXPECT_TRUE(
      service.Submit(std::move(clean)).get().result->termination.complete());
}

}  // namespace
}  // namespace flowmotif
