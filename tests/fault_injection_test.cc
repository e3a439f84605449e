// The query-lifecycle robustness matrix (DESIGN.md Sec. 10): every
// failpoint site x every query mode x every injected fault x serial and
// parallel pools. Each faulted run must terminate without a crash or a
// deadlock, report the injected outcome (code + site) in its
// Termination record, expose only a canonical work prefix as partial
// results, and leave the engine fully serviceable — a clean follow-up
// query must be byte-identical to one on a fresh engine. Budget,
// deadline, pre-cancelled-token, and async cancellation races are
// covered without failpoints; the async-cancel race against the
// pooled P1 scan and the P2 batches at batch_size = 1 is the TSan
// target for the deterministic-prefix guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/motif_catalog.h"
#include "core/structural_match.h"
#include "engine/query_engine.h"
#include "gen/presets.h"
#include "stream/streaming_monitor.h"
#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace flowmotif {
namespace {

struct Workload {
  TimeSeriesGraph graph;
  Motif motif;
  Timestamp delta;
};

/// One shared moderately sized workload: hundreds of interactions and
/// enough structural matches that prefixes, batches, and parallel P1
/// ranges are all non-trivial.
const Workload& SharedWorkload() {
  static const Workload* workload = [] {
    const DatasetPreset& preset = AllPresets().front();
    return new Workload{GenerateDataset(preset, 0.05),
                        *MotifCatalog::ByName("M(3,2)"),
                        preset.default_delta};
  }();
  return *workload;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kFailpointsCompiledIn) {
      GTEST_SKIP() << "failpoints compiled out (FLOWMOTIF_FAILPOINTS=OFF)";
    }
    failpoint::DisarmAll();
  }
  void TearDown() override { failpoint::DisarmAll(); }
};

/// Compares the mode-relevant deterministic payload of two results.
/// Every stat here is deterministic in every mode — kTopK quarantines
/// its floating-threshold activity in num_pruning_probes, so its
/// num_instances (== topk.size()) compares like any other mode's.
void ExpectSamePayload(const QueryResult& a, const QueryResult& b,
                       const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.stats.num_instances, b.stats.num_instances);
  EXPECT_EQ(a.stats.num_phi_prunes, b.stats.num_phi_prunes);
  EXPECT_EQ(a.stats.num_structural_matches, b.stats.num_structural_matches);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i], b.instances[i]) << "instance " << i;
  }
  ASSERT_EQ(a.topk.size(), b.topk.size());
  for (size_t i = 0; i < a.topk.size(); ++i) {
    EXPECT_EQ(a.topk[i].flow, b.topk[i].flow) << "topk " << i;
    EXPECT_EQ(a.topk[i].instance, b.topk[i].instance) << "topk " << i;
  }
  EXPECT_EQ(a.top1.found, b.top1.found);
  EXPECT_EQ(a.top1.max_flow, b.top1.max_flow);
  if (a.top1.found && b.top1.found) {
    EXPECT_EQ(a.top1.best, b.top1.best);
  }
  if (a.mode == QueryMode::kSignificance) {
    EXPECT_EQ(a.significance.real_count, b.significance.real_count);
    EXPECT_EQ(a.significance.random_counts, b.significance.random_counts);
    EXPECT_EQ(a.significance.z_score, b.significance.z_score);
    EXPECT_EQ(a.significance.p_value, b.significance.p_value);
  }
}

TEST_F(FaultInjectionTest, SiteInventoryIsComplete) {
  const std::vector<std::string>& sites = failpoint::AllSites();
  EXPECT_EQ(sites.size(), 10u);
  for (const char* site :
       {failpoint::kEngineStart, failpoint::kP1Unit, failpoint::kP2Batch,
        failpoint::kDpMatch, failpoint::kSigTask, failpoint::kSweepRecord,
        failpoint::kSweepCell, failpoint::kStreamRevisit,
        failpoint::kCacheWindows, failpoint::kServeAdmit}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), std::string(site)),
              sites.end())
        << site;
  }
}

TEST_F(FaultInjectionTest, EverySiteModeActionTerminatesAndEngineRecovers) {
  const Workload& w = SharedWorkload();
  const QueryEngine engine(w.graph);

  struct ModeCase {
    const char* name;
    QueryOptions options;
    std::vector<const char*> sites;  // cancellation points this mode hits
  };
  std::vector<ModeCase> modes;
  {
    QueryOptions o;
    o.mode = QueryMode::kEnumerate;
    o.delta = w.delta;
    o.collect_limit = -1;  // materializes every instance
    modes.push_back({"enumerate.collecting", o,
                     {failpoint::kEngineStart, failpoint::kP1Unit,
                      failpoint::kP2Batch}});
    o.collect_limit = 0;  // counters only
    modes.push_back({"enumerate.counters", o,
                     {failpoint::kEngineStart, failpoint::kP1Unit,
                      failpoint::kP2Batch}});
  }
  {
    QueryOptions o;
    o.mode = QueryMode::kCount;
    o.delta = w.delta;
    modes.push_back({"count", o,
                     {failpoint::kEngineStart, failpoint::kP1Unit,
                      failpoint::kP2Batch}});
  }
  {
    QueryOptions o;
    o.mode = QueryMode::kTopK;
    o.delta = w.delta;
    o.k = 5;
    modes.push_back({"topk", o,
                     {failpoint::kEngineStart, failpoint::kP1Unit,
                      failpoint::kP2Batch}});
  }
  {
    QueryOptions o;
    o.mode = QueryMode::kTop1;
    o.delta = w.delta;
    modes.push_back({"top1", o,
                     {failpoint::kEngineStart, failpoint::kP1Unit,
                      failpoint::kP2Batch, failpoint::kDpMatch}});
  }
  {
    QueryOptions o;
    o.mode = QueryMode::kSignificance;
    o.delta = w.delta;
    o.num_random_graphs = 4;
    o.seed = 7;
    modes.push_back({"significance", o,
                     {failpoint::kEngineStart, failpoint::kP1Unit,
                      failpoint::kSweepRecord, failpoint::kSigTask}});
  }

  struct ActionCase {
    failpoint::Action action;
    TerminationCode expected;
  };
  const ActionCase actions[] = {
      {failpoint::Action::kCancel, TerminationCode::kCancelled},
      {failpoint::Action::kDeadline, TerminationCode::kDeadlineExceeded},
      {failpoint::Action::kBudget, TerminationCode::kBudgetExceeded},
      {failpoint::Action::kError, TerminationCode::kError},
  };

  for (int threads : {1, 4}) {
    for (ModeCase& mode : modes) {
      mode.options.num_threads = threads;
      const QueryResult baseline = engine.Run(w.motif, mode.options);
      ASSERT_TRUE(baseline.termination.complete())
          << mode.name << " baseline: " << baseline.termination.ToString();

      for (const char* site : mode.sites) {
        for (const ActionCase& action : actions) {
          const std::string context = std::string(mode.name) + " site=" +
                                      site + " threads=" +
                                      std::to_string(threads);
          SCOPED_TRACE(context);

          failpoint::Config config;
          config.action = action.action;
          failpoint::Arm(site, config);
          const QueryResult faulted = engine.Run(w.motif, mode.options);
          failpoint::DisarmAll();

          EXPECT_EQ(faulted.termination.code, action.expected)
              << faulted.termination.ToString();
          EXPECT_EQ(faulted.termination.stopped_at, site);
          EXPECT_GE(faulted.termination.work_completed, 0);
          if (action.expected == TerminationCode::kError) {
            EXPECT_FALSE(faulted.termination.status.ok());
          } else {
            EXPECT_TRUE(faulted.termination.status.ok());
          }

          // The engine stays serviceable: a clean follow-up query is
          // byte-identical to the pre-fault baseline.
          const QueryResult again = engine.Run(w.motif, mode.options);
          ASSERT_TRUE(again.termination.complete());
          ExpectSamePayload(again, baseline, context + " follow-up");
        }
      }
    }
  }
}

TEST_F(FaultInjectionTest, MidRunStopExposesExactSerialPrefix) {
  // Arm the per-match P2 site a few hits in: whatever prefix length M
  // the faulted run reports, its payload must equal a clean serial
  // phase-P2 run over exactly the first M structural matches.
  const Workload& w = SharedWorkload();
  const QueryEngine engine(w.graph);
  const StructuralMatcher matcher(w.graph, w.motif);
  const std::vector<MatchBinding> all = matcher.FindAllMatches();
  ASSERT_GT(all.size(), 16u);

  for (int threads : {1, 4}) {
    QueryOptions options;
    options.mode = QueryMode::kEnumerate;
    options.delta = w.delta;
    options.collect_limit = -1;
    options.num_threads = threads;
    options.batch_size = 4;

    failpoint::Config config;
    config.action = failpoint::Action::kCancel;
    config.hits_before_trigger = 9;
    failpoint::Arm(failpoint::kP2Batch, config);
    const QueryResult faulted = engine.Run(w.motif, options);
    failpoint::DisarmAll();

    ASSERT_EQ(faulted.termination.code, TerminationCode::kCancelled)
        << "threads=" << threads;
    const int64_t prefix = faulted.termination.work_completed;
    ASSERT_GE(prefix, 0);
    ASSERT_LT(prefix, static_cast<int64_t>(all.size()));
    EXPECT_EQ(faulted.stats.num_structural_matches, prefix);

    const std::vector<MatchBinding> head(all.begin(),
                                         all.begin() + prefix);
    QueryOptions clean = options;
    clean.num_threads = 1;
    const QueryResult reference = engine.RunOnMatches(w.motif, head, clean);
    ASSERT_TRUE(reference.termination.complete());
    ExpectSamePayload(faulted, reference,
                      "prefix=" + std::to_string(prefix) +
                          " threads=" + std::to_string(threads));
  }
}

TEST_F(FaultInjectionTest, MaxMatchesBudgetTruncatesToExactPrefix) {
  // The budgeted P1 scan hands its capped list to the executor; every
  // P2 mode must then run exactly over that prefix.
  const Workload& w = SharedWorkload();
  const QueryEngine engine(w.graph);
  const StructuralMatcher matcher(w.graph, w.motif);
  const std::vector<MatchBinding> all = matcher.FindAllMatches();
  constexpr int64_t kCap = 10;
  ASSERT_GT(all.size(), static_cast<size_t>(kCap));
  const std::vector<MatchBinding> head(all.begin(), all.begin() + kCap);

  for (QueryMode mode : {QueryMode::kEnumerate, QueryMode::kCount,
                         QueryMode::kTopK, QueryMode::kTop1}) {
    for (int threads : {1, 4}) {
      const std::string context =
          "max_matches mode=" + std::to_string(static_cast<int>(mode)) +
          " threads=" + std::to_string(threads);
      SCOPED_TRACE(context);
      QueryOptions options;
      options.mode = mode;
      options.delta = w.delta;
      options.collect_limit = -1;
      options.k = 5;
      options.num_threads = threads;
      options.budget.max_matches = kCap;

      const QueryResult result = engine.Run(w.motif, options);
      EXPECT_EQ(result.termination.code, TerminationCode::kBudgetExceeded);
      EXPECT_EQ(result.termination.stopped_at, failpoint::kP1Unit);
      EXPECT_EQ(result.termination.detail, "max_matches");
      // A soft stop: P2 ran to completion over exactly the first kCap
      // matches, for every thread count.
      EXPECT_EQ(result.termination.work_completed, kCap);
      EXPECT_EQ(result.stats.num_structural_matches, kCap);

      QueryOptions clean = options;
      clean.num_threads = 1;
      clean.budget = WorkBudget();
      const QueryResult reference = engine.RunOnMatches(w.motif, head, clean);
      ASSERT_TRUE(reference.termination.complete());
      ExpectSamePayload(result, reference, context);
    }
  }

  // kSignificance analyzes the same canonical prefix: its real count is
  // the kCount of the first kCap matches, over the whole ensemble.
  for (int threads : {1, 4}) {
    SCOPED_TRACE("max_matches significance threads=" +
                 std::to_string(threads));
    QueryOptions options;
    options.mode = QueryMode::kSignificance;
    options.delta = w.delta;
    options.num_random_graphs = 3;
    options.num_threads = threads;
    options.budget.max_matches = kCap;
    const QueryResult result = engine.Run(w.motif, options);
    EXPECT_EQ(result.termination.code, TerminationCode::kBudgetExceeded);
    EXPECT_EQ(result.termination.stopped_at, failpoint::kP1Unit);
    EXPECT_EQ(result.termination.detail, "max_matches");
    EXPECT_EQ(result.significance.graphs_completed, 4);
    EXPECT_EQ(result.significance.random_counts.size(), 3u);

    QueryOptions count = options;
    count.mode = QueryMode::kCount;
    const QueryResult counted = engine.Run(w.motif, count);
    EXPECT_EQ(counted.termination.code, TerminationCode::kBudgetExceeded);
    EXPECT_EQ(result.significance.real_count, counted.stats.num_instances);
  }
}

TEST_F(FaultInjectionTest, P1HardStopFoldsNothingOnEveryEntryPoint) {
  // A hard stop inside the P1 scan leaves an incomplete match list, and
  // P2 starts only after the scan: no P2 mode folds any of it, at any
  // thread count, just as RunSweep validates no cell and significance
  // completes no graph.
  const Workload& w = SharedWorkload();
  const QueryEngine engine(w.graph);
  failpoint::Config config;
  config.action = failpoint::Action::kCancel;
  config.hits_before_trigger = 200;

  for (int threads : {1, 4}) {
    for (QueryMode mode :
         {QueryMode::kEnumerate, QueryMode::kCount, QueryMode::kTopK,
          QueryMode::kTop1, QueryMode::kSignificance}) {
      const std::string context =
          "mode=" + std::to_string(static_cast<int>(mode)) +
          " threads=" + std::to_string(threads);
      SCOPED_TRACE(context);
      QueryOptions options;
      options.mode = mode;
      options.delta = w.delta;
      options.collect_limit = -1;
      options.k = 5;
      options.num_random_graphs = 3;
      options.num_threads = threads;
      failpoint::Arm(failpoint::kP1Unit, config);
      const QueryResult result = engine.Run(w.motif, options);
      failpoint::DisarmAll();

      ASSERT_EQ(result.termination.code, TerminationCode::kCancelled);
      EXPECT_EQ(result.termination.stopped_at, failpoint::kP1Unit);
      EXPECT_EQ(result.termination.work_completed, 0);
      EXPECT_EQ(result.stats.num_instances, 0);
      EXPECT_TRUE(result.instances.empty());
      EXPECT_TRUE(result.topk.empty());
      EXPECT_FALSE(result.top1.found);
      if (mode == QueryMode::kSignificance) {
        EXPECT_EQ(result.significance.graphs_completed, 0);
      } else {
        EXPECT_EQ(result.stats.num_structural_matches, 0);
      }
    }

    SweepQuery sweep;
    sweep.deltas = {w.delta};
    sweep.phis = {0.0, 1.0};
    QueryOptions options;
    options.num_threads = threads;
    failpoint::Arm(failpoint::kP1Unit, config);
    const SweepResult swept = engine.RunSweep(w.motif, sweep, options);
    failpoint::DisarmAll();
    SCOPED_TRACE("sweep threads=" + std::to_string(threads));
    ASSERT_EQ(swept.termination.code, TerminationCode::kCancelled);
    EXPECT_EQ(swept.termination.stopped_at, failpoint::kP1Unit);
    EXPECT_EQ(swept.termination.work_completed, 0);
    for (const uint8_t valid : swept.cell_valid) EXPECT_EQ(valid, 0);
  }
}

TEST_F(FaultInjectionTest, WindowElementBudgetStopsInteriorNodeMotifs) {
  // The window budget on a motif with an interior node, M(5,4), whose
  // matches can repeat a (first, last) pair: every match's list is
  // charged where the match reads it.
  const Workload& w = SharedWorkload();
  const QueryEngine engine(w.graph);
  const Motif motif = *MotifCatalog::ByName("M(5,4)");
  QueryOptions options;
  options.mode = QueryMode::kCount;
  options.delta = w.delta;
  options.budget.max_window_elements = 1;

  const QueryResult result = engine.Run(motif, options);
  EXPECT_EQ(result.termination.code, TerminationCode::kBudgetExceeded)
      << result.termination.ToString();
  EXPECT_EQ(result.termination.stopped_at, failpoint::kCacheWindows);

  // Unconstrained follow-up still completes.
  options.budget = WorkBudget();
  const QueryResult clean = engine.Run(motif, options);
  EXPECT_TRUE(clean.termination.complete());
  EXPECT_GT(clean.stats.num_structural_matches, 0);
}

TEST_F(FaultInjectionTest, WindowBudgetHoldsForNonInteriorMotifs) {
  // Regression: the window budget was once charged only where a
  // window cache materialized a list, and only interior-node motifs
  // read through one — so M(2,1)/M(3,2) computed their window lists
  // entirely unbudgeted. The charge lands at "cache.windows" for every
  // list a match reads, so the cap binds for every motif shape. This
  // test fails on that engine (the query completes as if no budget
  // were set).
  const Workload& w = SharedWorkload();  // M(3,2): no interior node
  const QueryEngine engine(w.graph);
  for (QueryMode mode : {QueryMode::kCount, QueryMode::kEnumerate}) {
    SCOPED_TRACE(static_cast<int>(mode));
    QueryOptions options;
    options.mode = mode;
    options.delta = w.delta;
    options.budget.max_window_elements = 1;

    const QueryResult result = engine.Run(w.motif, options);
    EXPECT_EQ(result.termination.code, TerminationCode::kBudgetExceeded)
        << result.termination.ToString();
    EXPECT_EQ(result.termination.stopped_at, failpoint::kCacheWindows);

    options.budget = WorkBudget();
    const QueryResult clean = engine.Run(w.motif, options);
    EXPECT_TRUE(clean.termination.complete());
    EXPECT_GT(clean.stats.num_structural_matches, 0);
  }
}

TEST_F(FaultInjectionTest, TopKStatsDeterministicAcrossExecutionConfigs) {
  // Regression: kTopK's num_instances used to count emissions that
  // survived the floating threshold — an execution-dependent number
  // (batch-local thresholds tighten at different rates), so it
  // diverged between the control-active batched path and the serial
  // shared-threshold path. It now always equals topk.size(), with the
  // raw survivor/prune activity quarantined in num_pruning_probes.
  // This test fails on the pre-fix engine at batch_size = 1 with a
  // control active.
  const Workload& w = SharedWorkload();
  const QueryEngine engine(w.graph);
  QueryOptions base;
  base.mode = QueryMode::kTopK;
  base.delta = w.delta;
  base.k = 5;

  const QueryResult reference = engine.Run(w.motif, base);
  ASSERT_TRUE(reference.termination.complete());
  ASSERT_FALSE(reference.topk.empty());
  EXPECT_EQ(reference.stats.num_instances,
            static_cast<int64_t>(reference.topk.size()));
  EXPECT_EQ(reference.stats.num_phi_prunes, 0);

  for (int threads : {1, 4}) {
    for (int64_t batch_size : {int64_t{1}, int64_t{0}}) {
      for (bool with_control : {false, true}) {
        QueryOptions o = base;
        o.num_threads = threads;
        o.batch_size = batch_size;
        if (with_control) {
          // A generous deadline activates the control without ever
          // tripping, forcing the batch-local TopKRunLocal path.
          o.deadline = QueryDeadline::AfterSeconds(3600.0);
        }
        const QueryResult r = engine.Run(w.motif, o);
        ASSERT_TRUE(r.termination.complete());
        ExpectSamePayload(r, reference,
                          "threads=" + std::to_string(threads) +
                              " batch=" + std::to_string(batch_size) +
                              " control=" + std::to_string(with_control));
      }
    }
  }
}

TEST(QueryControlBoundaryTest, BoundaryCheckReadsClockUnthrottled) {
  // Regression: every deadline read used to go through the 1-in-64
  // check throttle, so a batch of dense matches could burn a whole
  // throttle window past the deadline before any check noticed. The
  // batch-boundary check reads the clock unconditionally; the throttled
  // per-match checks in between are allowed to miss the expiry.
  QueryControl control(nullptr, QueryDeadline::AfterMillis(50), WorkBudget());
  // Check #0 is the throttle's scheduled clock read: not yet expired.
  EXPECT_FALSE(control.CheckAt(failpoint::kP2Batch));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // Throttled checks 1..32 skip the clock: the expiry goes unnoticed —
  // the pre-fix behaviour this test pins down.
  for (int i = 0; i < 32; ++i) {
    ASSERT_FALSE(control.CheckAt(failpoint::kP2Batch)) << "check " << i;
  }
  // The boundary check reads the clock unconditionally and stops.
  EXPECT_TRUE(control.CheckAtBoundary(failpoint::kP2Batch));
  const Termination t = control.Finish(0);
  EXPECT_EQ(t.code, TerminationCode::kDeadlineExceeded);
  EXPECT_EQ(t.stopped_at, failpoint::kP2Batch);
}

TEST_F(FaultInjectionTest, ExpiredDeadlineStopsBeforeWork) {
  const Workload& w = SharedWorkload();
  const QueryEngine engine(w.graph);
  QueryOptions options;
  options.mode = QueryMode::kCount;
  options.delta = w.delta;
  options.deadline = QueryDeadline::AfterMillis(0);

  const QueryResult result = engine.Run(w.motif, options);
  EXPECT_EQ(result.termination.code, TerminationCode::kDeadlineExceeded);
  EXPECT_EQ(result.termination.stopped_at, failpoint::kEngineStart);
  EXPECT_EQ(result.termination.work_completed, 0);
}

TEST_F(FaultInjectionTest, GenerousDeadlineLeavesResultByteIdentical) {
  // An active control that never trips must not change any output. The
  // last three deadlines lie past the steady clock's range (about 292
  // years): they must never expire, not wrap into the past.
  const Workload& w = SharedWorkload();
  const QueryEngine engine(w.graph);
  const std::vector<std::pair<std::string, QueryDeadline>> deadlines = {
      {"1 hour", QueryDeadline::AfterSeconds(3600.0)},
      {"1e13 ms", QueryDeadline::AfterMillis(10'000'000'000'000)},
      {"INT64_MAX ms",
       QueryDeadline::AfterMillis(std::numeric_limits<int64_t>::max())},
      {"+inf s",
       QueryDeadline::AfterSeconds(std::numeric_limits<double>::infinity())}};
  for (const auto& [name, deadline] : deadlines) {
    EXPECT_FALSE(deadline.Expired()) << name;
    for (QueryMode mode : {QueryMode::kEnumerate, QueryMode::kCount,
                           QueryMode::kTopK, QueryMode::kTop1}) {
      QueryOptions options;
      options.mode = mode;
      options.delta = w.delta;
      options.collect_limit = -1;
      options.k = 5;
      const QueryResult baseline = engine.Run(w.motif, options);
      options.deadline = deadline;
      const QueryResult guarded = engine.Run(w.motif, options);
      ASSERT_TRUE(guarded.termination.complete())
          << name << ": " << guarded.termination.ToString();
      ExpectSamePayload(guarded, baseline,
                        name + " mode=" +
                            std::to_string(static_cast<int>(mode)));
    }
  }
}

TEST_F(FaultInjectionTest, PreCancelledTokenStopsImmediately) {
  const Workload& w = SharedWorkload();
  const QueryEngine engine(w.graph);
  CancellationToken token;
  token.Cancel("caller gave up");
  QueryOptions options;
  options.mode = QueryMode::kTopK;
  options.delta = w.delta;
  options.k = 5;
  options.cancel_token = &token;

  const QueryResult result = engine.Run(w.motif, options);
  EXPECT_EQ(result.termination.code, TerminationCode::kCancelled);
  EXPECT_EQ(result.termination.stopped_at, failpoint::kEngineStart);
  EXPECT_EQ(result.termination.detail, "caller gave up");
  EXPECT_TRUE(result.topk.empty());
}

TEST_F(FaultInjectionTest, AsyncCancelRacingStreamedPipelineIsPrefixExact) {
  // The TSan target: a foreign thread cancels while the pooled P1 scan
  // or the P2 batches at batch_size = 1 are mid-flight. Whatever the
  // stop point, the result must be a clean serial prefix — never a torn
  // merge.
  const Workload& w = SharedWorkload();
  const QueryEngine engine(w.graph);
  const StructuralMatcher matcher(w.graph, w.motif);
  const std::vector<MatchBinding> all = matcher.FindAllMatches();

  QueryOptions options;
  options.mode = QueryMode::kCount;
  options.delta = w.delta;
  options.num_threads = 4;
  options.batch_size = 1;
  const QueryResult baseline = engine.Run(w.motif, options);

  for (int trial = 0; trial < 8; ++trial) {
    CancellationToken token;
    options.cancel_token = &token;
    std::thread canceller([&token, trial] {
      std::this_thread::sleep_for(std::chrono::microseconds(40 * trial));
      token.Cancel("race");
    });
    const QueryResult result = engine.Run(w.motif, options);
    canceller.join();

    if (result.termination.complete()) {
      ExpectSamePayload(result, baseline,
                        "trial " + std::to_string(trial) + " completed");
      continue;
    }
    ASSERT_EQ(result.termination.code, TerminationCode::kCancelled);
    const int64_t prefix = result.termination.work_completed;
    ASSERT_GE(prefix, 0);
    ASSERT_LE(prefix, static_cast<int64_t>(all.size()));
    EXPECT_EQ(result.stats.num_structural_matches, prefix);

    const std::vector<MatchBinding> head(all.begin(), all.begin() + prefix);
    QueryOptions clean;
    clean.mode = QueryMode::kCount;
    clean.delta = w.delta;
    const QueryResult reference = engine.RunOnMatches(w.motif, head, clean);
    EXPECT_EQ(result.stats.num_instances, reference.stats.num_instances)
        << "trial " << trial << " prefix " << prefix;
  }
}

TEST_F(FaultInjectionTest, SweepStopMarksExactlyTheCompletedCells) {
  const Workload& w = SharedWorkload();
  const QueryEngine engine(w.graph);
  SweepQuery sweep;
  sweep.deltas = {w.delta / 2, w.delta, w.delta * 2};
  sweep.phis = {0.0, 1.0, 2.0};
  QueryOptions options;

  const SweepResult clean = engine.RunSweep(w.motif, sweep, options);
  ASSERT_TRUE(clean.termination.complete());
  ASSERT_EQ(clean.counts.size(), 9u);

  for (const bool replay : {true, false}) {
    options.skeleton_replay = replay;
    const SweepResult clean_path = engine.RunSweep(w.motif, sweep, options);
    failpoint::Config config;
    config.action = failpoint::Action::kCancel;
    config.hits_before_trigger = 3;
    failpoint::Arm(failpoint::kSweepCell, config);
    const SweepResult faulted = engine.RunSweep(w.motif, sweep, options);
    failpoint::DisarmAll();

    SCOPED_TRACE(replay ? "replay" : "fallback");
    EXPECT_EQ(faulted.termination.code, TerminationCode::kCancelled);
    ASSERT_EQ(faulted.cell_valid.size(), faulted.counts.size());
    int64_t valid = 0;
    for (size_t i = 0; i < faulted.cell_valid.size(); ++i) {
      if (faulted.cell_valid[i] == 0) continue;
      ++valid;
      // Every cell marked valid is exact.
      EXPECT_EQ(faulted.counts[i], clean_path.counts[i]) << "cell " << i;
    }
    EXPECT_EQ(valid, faulted.termination.work_completed);
    EXPECT_LT(valid, static_cast<int64_t>(faulted.counts.size()));
  }
}

TEST_F(FaultInjectionTest, SweepRecordingStopAbandonsCleanly) {
  const Workload& w = SharedWorkload();
  const QueryEngine engine(w.graph);
  SweepQuery sweep;
  sweep.deltas = {w.delta};
  sweep.phis = {0.0, 1.0};
  QueryOptions options;

  failpoint::Config config;
  config.action = failpoint::Action::kDeadline;
  failpoint::Arm(failpoint::kSweepRecord, config);
  const SweepResult faulted = engine.RunSweep(w.motif, sweep, options);
  failpoint::DisarmAll();

  EXPECT_EQ(faulted.termination.code, TerminationCode::kDeadlineExceeded);
  const SweepResult clean = engine.RunSweep(w.motif, sweep, options);
  for (size_t i = 0; i < faulted.cell_valid.size(); ++i) {
    if (faulted.cell_valid[i] != 0) {
      EXPECT_EQ(faulted.counts[i], clean.counts[i]) << "cell " << i;
    }
  }
}

TEST_F(FaultInjectionTest, SignificanceStopCoversEnsemblePrefix) {
  const Workload& w = SharedWorkload();
  const QueryEngine engine(w.graph);
  QueryOptions options;
  options.mode = QueryMode::kSignificance;
  options.delta = w.delta;
  options.num_random_graphs = 6;
  options.seed = 11;

  const QueryResult clean = engine.Run(w.motif, options);
  ASSERT_TRUE(clean.termination.complete());
  ASSERT_EQ(clean.significance.random_counts.size(), 6u);

  failpoint::Config config;
  config.action = failpoint::Action::kCancel;
  config.hits_before_trigger = 3;
  failpoint::Arm(failpoint::kSigTask, config);
  const QueryResult faulted = engine.Run(w.motif, options);
  failpoint::DisarmAll();

  ASSERT_EQ(faulted.termination.code, TerminationCode::kCancelled);
  const int64_t done = faulted.significance.graphs_completed;
  ASSERT_GE(done, 0);
  ASSERT_LT(done, 7);
  EXPECT_EQ(faulted.termination.work_completed, done);
  if (done >= 1) {
    EXPECT_EQ(faulted.significance.real_count, clean.significance.real_count);
  }
  ASSERT_EQ(faulted.significance.random_counts.size(),
            static_cast<size_t>(done >= 1 ? done - 1 : 0));
  for (size_t i = 0; i < faulted.significance.random_counts.size(); ++i) {
    // The ensemble prefix is deterministic: task i produces the same
    // count whether or not later tasks ran.
    EXPECT_EQ(faulted.significance.random_counts[i],
              clean.significance.random_counts[i])
        << "graph " << i;
  }
}

TEST_F(FaultInjectionTest, StreamSealDefersRevisitsAndDrainsExactly) {
  StreamOptions sopts;
  sopts.delta = 10;
  sopts.k = 5;
  const Motif motif = *MotifCatalog::ByName("M(3,2)");
  StreamingMotifMonitor faulted(motif, sopts);
  StreamingMotifMonitor reference(motif, sopts);

  const std::vector<InteractionGraph::Edge> epoch1 = {
      {0, 1, 5, 2.0}, {1, 2, 7, 3.0}, {0, 1, 8, 1.0}};
  const std::vector<InteractionGraph::Edge> epoch2 = {
      {0, 1, 9, 4.0}, {1, 2, 14, 2.0}, {0, 1, 15, 1.0}};
  for (const InteractionGraph::Edge& e : epoch1) {
    ASSERT_TRUE(faulted.Append(e).ok());
    ASSERT_TRUE(reference.Append(e).ok());
  }
  ASSERT_TRUE(faulted.SealEpoch().termination.complete());
  ASSERT_TRUE(reference.SealEpoch().termination.complete());
  for (const InteractionGraph::Edge& e : epoch2) {
    ASSERT_TRUE(faulted.Append(e).ok());
    ASSERT_TRUE(reference.Append(e).ok());
  }

  // Stop the faulted monitor's seal on its very first revisit: every
  // revisit is deferred, the seal reports kCancelled, and the aggregates
  // lag the new snapshot.
  failpoint::Config config;
  config.action = failpoint::Action::kCancel;
  failpoint::Arm(failpoint::kStreamRevisit, config);
  const StreamingMotifMonitor::EpochStats stopped = faulted.SealEpoch();
  failpoint::DisarmAll();
  EXPECT_EQ(stopped.termination.code, TerminationCode::kCancelled);
  EXPECT_EQ(stopped.termination.stopped_at, failpoint::kStreamRevisit);
  EXPECT_EQ(stopped.num_matches_revisited, 0u);
  ASSERT_GT(stopped.num_revisits_deferred, 0);

  const StreamingMotifMonitor::EpochStats ref_stats = reference.SealEpoch();
  ASSERT_TRUE(ref_stats.termination.complete());

  // A clean empty-tail seal drains the deferred revisits against the
  // unchanged snapshot; the monitors are byte-identical afterwards.
  const StreamingMotifMonitor::EpochStats drained = faulted.SealEpoch();
  EXPECT_TRUE(drained.termination.complete());
  EXPECT_EQ(drained.num_revisits_deferred, 0);
  EXPECT_GT(drained.num_matches_revisited, 0u);

  EXPECT_EQ(faulted.TotalInstances(), reference.TotalInstances());
  EXPECT_EQ(faulted.LiveInstances(), reference.LiveInstances());
  const std::vector<TopKEntry> faulted_topk = faulted.TopK();
  const std::vector<TopKEntry> reference_topk = reference.TopK();
  ASSERT_EQ(faulted_topk.size(), reference_topk.size());
  for (size_t i = 0; i < faulted_topk.size(); ++i) {
    EXPECT_EQ(faulted_topk[i].flow, reference_topk[i].flow) << i;
    EXPECT_EQ(faulted_topk[i].instance, reference_topk[i].instance) << i;
  }
}

TEST_F(FaultInjectionTest, InvalidOptionsRejectedWithoutCrash) {
  const Workload& w = SharedWorkload();
  const QueryEngine engine(w.graph);

  QueryOptions bad;
  bad.mode = QueryMode::kTopK;
  bad.delta = w.delta;
  bad.k = 0;  // kTopK requires k >= 1
  const QueryResult result = engine.Run(w.motif, bad);
  EXPECT_EQ(result.termination.code, TerminationCode::kError);
  EXPECT_EQ(result.termination.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.termination.work_completed, 0);

  QueryOptions negative;
  negative.mode = QueryMode::kCount;
  negative.delta = -1;
  const QueryResult result2 = engine.Run(w.motif, negative);
  EXPECT_EQ(result2.termination.code, TerminationCode::kError);
  EXPECT_EQ(result2.termination.status.code(), StatusCode::kInvalidArgument);

  // The same engine still answers a well-formed query.
  QueryOptions good;
  good.mode = QueryMode::kCount;
  good.delta = w.delta;
  const QueryResult ok = engine.Run(w.motif, good);
  EXPECT_TRUE(ok.termination.complete());
}

}  // namespace
}  // namespace flowmotif
