// The live-serving contract (DESIGN.md Sec. 11): a QueryService over an
// EpochLog must answer — at every sealed epoch — byte-identically to a
// solo QueryEngine run on the same sealed snapshot, while seals swap
// the served graph underneath concurrent submissions. Seeded random
// append schedules (the stream_equivalence_test idiom: non-decreasing
// timestamps with duplicates, growing vertex universes, varying epoch
// sizes) are replayed into a service, interleaving submit / seal /
// submit. Also pinned down: in-flight and queued requests keep their
// submit-time snapshot across a seal, the completed-result cache
// invalidates exactly at real seals (no-op seals keep it warm), cached
// match lists survive exactly the seals that add no pair, and across
// hundreds of seals the match-list cache stays within its byte bound
// and every replaced snapshot is freed. The schedule suite is a TSan
// target (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/motif_catalog.h"
#include "engine/query_engine.h"
#include "graph/interaction_graph.h"
#include "graph/time_series_graph.h"
#include "serve/query_service.h"

namespace flowmotif {
namespace {

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

struct Schedule {
  std::vector<InteractionGraph::Edge> seed;  // epoch 0 (may be empty)
  std::vector<std::vector<InteractionGraph::Edge>> epochs;
};

/// One seeded random append schedule: non-decreasing timestamps with
/// frequent duplicates, a vertex universe that can grow mid-stream
/// (new-pair and new-vertex seals), epoch sizes from 1 to ~10, and an
/// optional static seed prefix.
Schedule MakeSchedule(uint64_t seed_value) {
  std::mt19937_64 rng(seed_value);
  Schedule schedule;

  const int initial_vertices = 4 + static_cast<int>(rng() % 4);  // 4..7
  const int max_vertices = initial_vertices + static_cast<int>(rng() % 4);
  int vertices = initial_vertices;
  Timestamp t = static_cast<Timestamp>(rng() % 50);

  const auto random_edge = [&]() {
    // Occasionally let the universe grow so some seals change topology.
    if (vertices < max_vertices && rng() % 12 == 0) ++vertices;
    const VertexId src = static_cast<VertexId>(rng() % vertices);
    VertexId dst = static_cast<VertexId>(rng() % vertices);
    if (src == dst) dst = (dst + 1) % vertices;
    t += static_cast<Timestamp>(rng() % 4);  // 0 keeps duplicate times
    const Flow f = static_cast<Flow>(1 + rng() % 9);
    return InteractionGraph::Edge{src, dst, t, f};
  };

  const size_t num_seed_edges = rng() % 25;  // sometimes empty
  for (size_t i = 0; i < num_seed_edges; ++i) {
    schedule.seed.push_back(random_edge());
  }
  const size_t num_epochs = 4 + rng() % 6;  // 4..9
  schedule.epochs.resize(num_epochs);
  for (std::vector<InteractionGraph::Edge>& epoch : schedule.epochs) {
    const size_t n = 1 + rng() % 10;
    for (size_t i = 0; i < n; ++i) epoch.push_back(random_edge());
  }
  return schedule;
}

TimeSeriesGraph BuildSeedGraph(const Schedule& schedule) {
  InteractionGraph multigraph;
  for (const InteractionGraph::Edge& e : schedule.seed) {
    const Status status = multigraph.AddEdge(e.src, e.dst, e.t, e.f);
    EXPECT_TRUE(status.ok()) << status;
  }
  return TimeSeriesGraph::Build(multigraph);
}

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
}

struct Case {
  const char* motif_name;
  QueryOptions options;
};

std::vector<Case> MixedCases(Timestamp delta) {
  std::vector<Case> cases;
  QueryOptions count;
  count.mode = QueryMode::kCount;
  count.delta = delta;
  cases.push_back({"M(3,2)", count});

  QueryOptions topk;
  topk.mode = QueryMode::kTopK;
  topk.delta = delta;
  topk.k = 3;
  cases.push_back({"M(3,2)", topk});

  QueryOptions top1;
  top1.mode = QueryMode::kTop1;
  top1.delta = delta;
  cases.push_back({"M(5,4)", top1});
  return cases;
}

QueryResult SoloRun(const TimeSeriesGraph& graph, const Case& c) {
  const QueryEngine engine(graph);
  QueryOptions options = c.options;
  options.num_threads = 1;
  return engine.Run(*MotifCatalog::ByName(c.motif_name), options);
}

TEST(ServingEpochTest, SealedServingMatchesFreshEngineAcrossSchedules) {
  // The headline equivalence lock: 50 seeded append schedules, and at
  // every seal the concurrently served results (2 workers) are
  // byte-identical to solo engine runs on that sealed snapshot.
  constexpr Timestamp kDelta = 20;
  constexpr uint64_t kNumSchedules = 50;
  const std::vector<Case> cases = MixedCases(kDelta);

  for (uint64_t seed = 0; seed < kNumSchedules; ++seed) {
    const Schedule schedule = MakeSchedule(seed);
    ServiceConfig config;
    config.num_workers = 2;
    config.max_concurrent = 2;
    config.enable_dedup = false;         // every submission must run
    config.enable_result_cache = false;  // repeats across seals included
    QueryService service(BuildSeedGraph(schedule), config);

    for (size_t e = 0; e < schedule.epochs.size(); ++e) {
      for (const InteractionGraph::Edge& edge : schedule.epochs[e]) {
        const Status status = service.Append(edge);
        ASSERT_TRUE(status.ok()) << status;
      }
      const EpochLog::SealInfo info = service.SealEpoch();
      ASSERT_EQ(info.num_appended, schedule.epochs[e].size());
      ASSERT_EQ(service.epoch(), info.epoch);
      ASSERT_EQ(service.Snapshot().get(), info.graph.get());

      // Submit the whole mixed batch concurrently, then compare each
      // against a fresh solo engine on the sealed snapshot.
      std::vector<std::future<ServedResult>> futures;
      futures.reserve(cases.size());
      for (const Case& c : cases) {
        ServeRequest request{*MotifCatalog::ByName(c.motif_name), c.options};
        futures.push_back(service.Submit(std::move(request)));
      }
      for (size_t i = 0; i < cases.size(); ++i) {
        const ServedResult served = futures[i].get();
        ASSERT_FALSE(served.rejected);
        ASSERT_TRUE(served.result->termination.complete())
            << served.result->termination.ToString();
        EXPECT_EQ(served.epoch, info.epoch);
        ExpectSameResult(*served.result, SoloRun(*info.graph, cases[i]),
                         "schedule " + std::to_string(seed) + " epoch " +
                             std::to_string(e) + " case " + std::to_string(i));
      }
    }
  }
}

TEST(ServingEpochTest, InFlightAndQueuedRequestsKeepTheirSubmitSnapshot) {
  // A seal must not change what an already-submitted request answers:
  // both the running (gated) request and the one queued behind it were
  // submitted pre-seal, so both run against the pre-seal snapshot even
  // though the seal lands while they are in flight — the shared_ptr
  // keeps that snapshot alive after the service republishes.
  constexpr Timestamp kDelta = 20;
  const Schedule schedule = MakeSchedule(7);
  ServiceConfig config;
  config.num_workers = 2;
  config.max_concurrent = 1;  // the second request queues
  config.enable_dedup = false;
  config.enable_result_cache = false;
  QueryService service(BuildSeedGraph(schedule), config);

  const std::shared_ptr<const TimeSeriesGraph> before = service.Snapshot();
  const EpochId epoch_before = service.epoch();
  const Case count_case = MixedCases(kDelta)[0];

  Gate gate;
  ServeRequest running{*MotifCatalog::ByName(count_case.motif_name),
                       count_case.options};
  running.on_start = [&gate] { gate.Wait(); };
  std::future<ServedResult> running_future = service.Submit(std::move(running));
  ServeRequest queued{*MotifCatalog::ByName(count_case.motif_name),
                      count_case.options};
  std::future<ServedResult> queued_future = service.Submit(std::move(queued));

  for (const InteractionGraph::Edge& edge : schedule.epochs[0]) {
    ASSERT_TRUE(service.Append(edge).ok());
  }
  const EpochLog::SealInfo info = service.SealEpoch();
  ASSERT_GT(info.num_appended, 0u);
  ASSERT_NE(info.graph.get(), before.get());
  gate.Open();

  const QueryResult pre_seal_solo = SoloRun(*before, count_case);
  for (auto* future : {&running_future, &queued_future}) {
    const ServedResult served = future->get();
    ASSERT_TRUE(served.result->termination.complete());
    EXPECT_EQ(served.epoch, epoch_before);
    ExpectSameResult(*served.result, pre_seal_solo, "pre-seal submission");
  }

  // A post-seal submission serves the new snapshot.
  ServeRequest fresh{*MotifCatalog::ByName(count_case.motif_name),
                     count_case.options};
  const ServedResult after = service.Submit(std::move(fresh)).get();
  EXPECT_EQ(after.epoch, info.epoch);
  ExpectSameResult(*after.result, SoloRun(*info.graph, count_case),
                   "post-seal submission");
}

TEST(ServingEpochTest, ResultCacheInvalidatesExactlyAtRealSeals) {
  constexpr Timestamp kDelta = 20;
  const Schedule schedule = MakeSchedule(11);
  ServiceConfig config;
  config.num_workers = 1;  // serial: repeats submit after completion
  config.enable_dedup = false;
  QueryService service(BuildSeedGraph(schedule), config);
  const Case count_case = MixedCases(kDelta)[0];

  const auto submit = [&service, &count_case] {
    ServeRequest request{*MotifCatalog::ByName(count_case.motif_name),
                         count_case.options};
    return service.Submit(std::move(request)).get();
  };

  const ServedResult first = submit();
  ASSERT_TRUE(first.result->termination.complete());
  EXPECT_FALSE(first.from_result_cache);
  EXPECT_TRUE(submit().from_result_cache);

  // A no-op seal (empty tail) publishes nothing and invalidates
  // nothing: the repeat is still free.
  const EpochLog::SealInfo noop = service.SealEpoch();
  EXPECT_EQ(noop.num_appended, 0u);
  EXPECT_TRUE(submit().from_result_cache);
  EXPECT_EQ(service.Stats().seals, 0);

  // A real seal swaps the snapshot: the cached pre-seal result must not
  // answer post-seal submissions — the repeat re-runs on the new
  // snapshot and matches a fresh engine, then repeats are free again.
  for (const InteractionGraph::Edge& edge : schedule.epochs[0]) {
    ASSERT_TRUE(service.Append(edge).ok());
  }
  const EpochLog::SealInfo info = service.SealEpoch();
  ASSERT_GT(info.num_appended, 0u);
  const ServedResult reran = submit();
  EXPECT_FALSE(reran.from_result_cache);
  ExpectSameResult(*reran.result, SoloRun(*info.graph, count_case),
                   "post-seal rerun");
  EXPECT_TRUE(submit().from_result_cache);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.seals, 1);
  EXPECT_EQ(stats.result_cache_hits, 3);
  EXPECT_EQ(stats.completed, 2);
}

TEST(ServingEpochTest, MatchListsSurviveSealsThatAddNoPair) {
  // A cached match list depends only on the topology. A seal whose
  // edges all land on existing pairs keeps the topology identity, so
  // the next read of the motif hits; a seal that adds a pair changes
  // it, so the list is dropped and the next read scans again. Every
  // result equals a fresh engine on that epoch's snapshot.
  InteractionGraph multigraph;
  const InteractionGraph::Edge seed_edges[] = {
      {0, 1, 10, 2.0}, {1, 2, 12, 3.0}, {2, 3, 14, 1.0}, {3, 4, 16, 2.0},
      {1, 3, 18, 4.0}, {0, 2, 20, 1.0}, {2, 4, 22, 5.0}, {4, 0, 24, 2.0},
  };
  for (const InteractionGraph::Edge& e : seed_edges) {
    ASSERT_TRUE(multigraph.AddEdge(e.src, e.dst, e.t, e.f).ok());
  }
  ServiceConfig config;
  config.num_workers = 1;
  config.enable_dedup = false;
  config.enable_result_cache = false;  // every read must run the engine
  QueryService service(TimeSeriesGraph::Build(multigraph), config);

  const std::vector<Case> cases = MixedCases(30);
  const Case& count_case = cases[0];
  const Case& topk_case = cases[1];  // the same motif as count_case
  const auto serve = [&service](const Case& c, const std::string& context) {
    ServeRequest request{*MotifCatalog::ByName(c.motif_name), c.options};
    const ServedResult served = service.Submit(std::move(request)).get();
    ASSERT_TRUE(served.result->termination.complete());
    ExpectSameResult(*served.result, SoloRun(*service.Snapshot(), c),
                     context);
  };

  serve(count_case, "epoch 0 fill");
  serve(topk_case, "epoch 0 hit");
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.match_list_lookups, 2);
  EXPECT_EQ(stats.match_list_hits, 1);
  const int64_t bytes = stats.match_list_bytes;
  EXPECT_GT(bytes, 0);

  // Edges on existing pairs only: same topology, the list stays.
  const StorageIdentity topology = service.Snapshot()->topology_identity();
  ASSERT_TRUE(service.Append(0, 1, 30, 1.0).ok());
  ASSERT_TRUE(service.Append(2, 4, 31, 2.0).ok());
  const EpochLog::SealInfo same = service.SealEpoch();
  ASSERT_EQ(same.num_appended, 2u);
  ASSERT_EQ(same.graph->topology_identity(), topology);
  EXPECT_EQ(service.Stats().match_list_bytes, bytes);
  serve(count_case, "after a seal adding no pair");
  EXPECT_EQ(service.Stats().match_list_hits, 2);

  // A new pair: a new topology, so the old list is dropped at the seal.
  ASSERT_TRUE(service.Append(3, 0, 40, 3.0).ok());
  const EpochLog::SealInfo grown = service.SealEpoch();
  ASSERT_NE(grown.graph->topology_identity(), topology);
  EXPECT_EQ(service.Stats().match_list_bytes, 0);
  serve(count_case, "after a seal adding a pair");
  stats = service.Stats();
  EXPECT_EQ(stats.match_list_hits, 2);
  EXPECT_GT(stats.match_list_bytes, 0);
  serve(topk_case, "hit on the new topology");
  EXPECT_EQ(service.Stats().match_list_hits, 3);
}

/// Soaks the state a service keeps across seals: 500 seals, alternately
/// adding a pair and appending to existing pairs only, with kCount and
/// kTopK reads at two deltas after each, all submitted at once. After
/// every epoch the match lists fit their byte bound, and the snapshot
/// each seal replaced is freed once the loop drops its own reference
/// and every run has returned: no cache, queue entry or finished run may
/// pin it. With one worker every read runs inline, so it is freed at
/// once; with more, a worker may still be returning from a read whose
/// future already resolved. Every 100th epoch the reads equal fresh
/// engines on that snapshot.
void SoakSeals(int num_workers) {
  constexpr int kNumSeals = 500;
  constexpr VertexId kVertices = 64;  // sparse: reads stay cheap
  std::mt19937_64 rng(17);
  Timestamp t = 0;
  const auto next_time = [&] { return t += static_cast<Timestamp>(rng() % 3); };
  const auto next_flow = [&] { return static_cast<Flow>(1 + rng() % 9); };

  InteractionGraph multigraph;
  for (int i = 0; i < 30; ++i) {
    const VertexId src = static_cast<VertexId>(rng() % kVertices);
    const VertexId dst = (src + 1 + static_cast<VertexId>(
                                        rng() % (kVertices - 1))) %
                         kVertices;
    ASSERT_TRUE(multigraph.AddEdge(src, dst, next_time(), next_flow()).ok());
  }
  ServiceConfig config;
  config.num_workers = num_workers;
  config.enable_dedup = false;
  QueryService service(TimeSeriesGraph::Build(multigraph), config);

  std::vector<Case> cases;
  for (const Timestamp delta : {Timestamp{10}, Timestamp{40}}) {
    const std::vector<Case> mixed = MixedCases(delta);
    cases.push_back(mixed[0]);  // kCount
    cases.push_back(mixed[1]);  // kTopK
  }

  std::weak_ptr<const TimeSeriesGraph> replaced;
  const auto freed = [&replaced, num_workers] {
    for (int waited_ms = 0; num_workers > 1 && !replaced.expired() &&
                            waited_ms < 10000;
         ++waited_ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return replaced.expired();
  };
  for (int e = 1; e <= kNumSeals; ++e) {
    ASSERT_TRUE(freed()) << "snapshot replaced by seal " << e - 1;
    const std::shared_ptr<const TimeSeriesGraph> before = service.Snapshot();
    replaced = before;
    const bool add_pair = e % 2 == 1;
    for (int i = 0; i < 2; ++i) {
      VertexId src = 0;
      VertexId dst = 0;
      if (add_pair && i == 0) {
        do {
          src = static_cast<VertexId>(rng() % kVertices);
          dst = static_cast<VertexId>(rng() % kVertices);
        } while (src == dst || before->FindPairIndex(src, dst) >= 0);
      } else {
        const TimeSeriesGraph::PairEdge& pair = before->pair(
            static_cast<size_t>(rng() % static_cast<uint64_t>(
                                            before->num_pairs())));
        src = pair.src;
        dst = pair.dst;
      }
      ASSERT_TRUE(service.Append(src, dst, next_time(), next_flow()).ok());
    }
    const EpochLog::SealInfo info = service.SealEpoch();
    ASSERT_EQ(info.epoch, static_cast<EpochId>(e));
    ASSERT_EQ(info.new_pairs.size(), add_pair ? 1u : 0u);

    std::vector<std::future<ServedResult>> futures;
    for (const Case& c : cases) {
      futures.push_back(
          service.Submit({*MotifCatalog::ByName(c.motif_name), c.options}));
    }
    for (size_t i = 0; i < cases.size(); ++i) {
      const ServedResult served = futures[i].get();
      ASSERT_TRUE(served.result->termination.complete());
      if (e % 100 == 0) {
        ExpectSameResult(*served.result, SoloRun(*info.graph, cases[i]),
                         "epoch " + std::to_string(e) + " case " +
                             std::to_string(i));
      }
    }
    ASSERT_LE(service.Stats().match_list_bytes,
              static_cast<int64_t>(QueryService::kMatchListCacheBytes))
        << "epoch " << e;
  }
  EXPECT_TRUE(freed()) << "snapshot replaced by the last seal";
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.seals, kNumSeals);
  EXPECT_GT(stats.match_list_bytes, 0);
}

TEST(ServingEpochTest, ServiceStateStaysBoundedAcrossManySeals) {
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    SoakSeals(workers);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace flowmotif
