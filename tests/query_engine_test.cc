#include "engine/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/counter.h"
#include "core/dp.h"
#include "core/enumerator.h"
#include "core/motif_catalog.h"
#include "core/significance.h"
#include "core/topk.h"
#include "gen/presets.h"
#include "test_util.h"

namespace flowmotif {
namespace {

Motif M33() { return *Motif::FromSpanningPath({0, 1, 2, 0}); }

QueryOptions BaseOptions(QueryMode mode, Timestamp delta, Flow phi) {
  QueryOptions options;
  options.mode = mode;
  options.delta = delta;
  options.phi = phi;
  return options;
}

TEST(QueryEngineTest, EnumerateAgreesWithEnumerator) {
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  QueryOptions options = BaseOptions(QueryMode::kEnumerate, 10, 5.0);
  options.collect_limit = -1;
  const QueryResult result = engine.Run(M33(), options);

  EnumerationOptions eopts;
  eopts.delta = 10;
  eopts.phi = 5.0;
  const FlowMotifEnumerator enumerator(g, M33(), eopts);
  const EnumerationResult direct = enumerator.Run();
  std::vector<MotifInstance> direct_instances = enumerator.CollectAll();

  EXPECT_EQ(result.stats.num_instances, direct.num_instances);
  EXPECT_EQ(result.stats.num_structural_matches,
            direct.num_structural_matches);
  EXPECT_EQ(result.stats.num_windows_processed,
            direct.num_windows_processed);
  EXPECT_EQ(result.stats.num_phi_prunes, direct.num_phi_prunes);
  EXPECT_EQ(result.stats.num_domination_skips, direct.num_domination_skips);
  EXPECT_EQ(result.instances, direct_instances);
  EXPECT_EQ(result.mode, QueryMode::kEnumerate);
  EXPECT_EQ(result.threads_used, 1);
}

TEST(QueryEngineTest, EnumerateCollectLimitTruncates) {
  const TimeSeriesGraph g = testing_util::PaperFig7Graph();
  const QueryEngine engine(g);

  QueryOptions all = BaseOptions(QueryMode::kEnumerate, 10, 0.0);
  all.collect_limit = -1;
  const QueryResult everything = engine.Run(M33(), all);
  ASSERT_GT(everything.instances.size(), 1u);

  QueryOptions limited = all;
  limited.collect_limit = 1;
  const QueryResult first = engine.Run(M33(), limited);
  ASSERT_EQ(first.instances.size(), 1u);
  EXPECT_EQ(first.instances[0], everything.instances[0]);
  // Counters are unaffected by the collection limit.
  EXPECT_EQ(first.stats.num_instances, everything.stats.num_instances);

  QueryOptions none = all;
  none.collect_limit = 0;
  const QueryResult counted = engine.Run(M33(), none);
  EXPECT_TRUE(counted.instances.empty());
  EXPECT_EQ(counted.stats.num_instances, everything.stats.num_instances);
}

TEST(QueryEngineTest, CountAgreesWithInstanceCounter) {
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  const QueryResult result =
      engine.Run(M33(), BaseOptions(QueryMode::kCount, 10, 5.0));

  const InstanceCounter counter(g, M33(), 10, 5.0);
  const InstanceCounter::Result direct = counter.Run();
  EXPECT_EQ(result.stats.num_instances, direct.num_instances);
  EXPECT_EQ(result.stats.num_structural_matches,
            direct.num_structural_matches);
  EXPECT_EQ(result.stats.num_windows_processed, direct.num_windows);
  EXPECT_EQ(result.memo_hits, direct.memo_hits);
}

TEST(QueryEngineTest, CountAgreesWithEnumerateMode) {
  const TimeSeriesGraph g = testing_util::PaperFig7Graph();
  const QueryEngine engine(g);
  const QueryResult counted =
      engine.Run(M33(), BaseOptions(QueryMode::kCount, 12, 3.0));
  const QueryResult enumerated =
      engine.Run(M33(), BaseOptions(QueryMode::kEnumerate, 12, 3.0));
  EXPECT_EQ(counted.stats.num_instances, enumerated.stats.num_instances);
}

TEST(QueryEngineTest, TopKAgreesWithTopKSearcher) {
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  QueryOptions options = BaseOptions(QueryMode::kTopK, 10, 0.0);
  options.k = 3;
  const QueryResult result = engine.Run(M33(), options);

  const TopKSearcher searcher(g, M33(), 10, 3);
  const TopKSearcher::Result direct = searcher.Run();
  ASSERT_EQ(result.topk.size(), direct.entries.size());
  for (size_t i = 0; i < result.topk.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.topk[i].flow, direct.entries[i].flow) << i;
    EXPECT_EQ(result.topk[i].instance, direct.entries[i].instance) << i;
  }
}

TEST(QueryEngineTest, Top1AgreesWithDpSearcher) {
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  const QueryResult result =
      engine.Run(M33(), BaseOptions(QueryMode::kTop1, 10, 0.0));

  const MaxFlowDpSearcher searcher(g, M33(), 10);
  const MaxFlowDpSearcher::Result direct = searcher.Run();
  ASSERT_EQ(result.top1.found, direct.found);
  if (direct.found) {
    EXPECT_DOUBLE_EQ(result.top1.max_flow, direct.max_flow);
    EXPECT_EQ(result.top1.best, direct.best);
    EXPECT_EQ(result.top1.binding, direct.binding);
  }
  EXPECT_EQ(result.stats.num_windows_processed, direct.num_windows);
}

TEST(QueryEngineTest, Top1MatchesTopKWinner) {
  const TimeSeriesGraph g = testing_util::PaperFig7Graph();
  const QueryEngine engine(g);
  QueryOptions topk = BaseOptions(QueryMode::kTopK, 10, 0.0);
  topk.k = 1;
  const QueryResult k1 = engine.Run(M33(), topk);
  const QueryResult top1 =
      engine.Run(M33(), BaseOptions(QueryMode::kTop1, 10, 0.0));
  ASSERT_FALSE(k1.topk.empty());
  ASSERT_TRUE(top1.top1.found);
  EXPECT_DOUBLE_EQ(k1.topk[0].flow, top1.top1.max_flow);
}

TEST(QueryEngineTest, SignificanceAgreesWithAnalyzer) {
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  QueryOptions options = BaseOptions(QueryMode::kSignificance, 10, 5.0);
  options.num_random_graphs = 5;
  options.seed = 7;
  const QueryResult result = engine.Run(M33(), options);

  SignificanceAnalyzer::Options sopts;
  sopts.num_random_graphs = 5;
  sopts.seed = 7;
  sopts.delta = 10;
  sopts.phi = 5.0;
  const SignificanceAnalyzer analyzer(g, sopts);
  const SignificanceAnalyzer::MotifReport direct = analyzer.Analyze(M33());

  EXPECT_EQ(result.significance.real_count, direct.real_count);
  EXPECT_EQ(result.significance.random_counts, direct.random_counts);
  EXPECT_DOUBLE_EQ(result.significance.z_score, direct.z_score);
  EXPECT_DOUBLE_EQ(result.significance.p_value, direct.p_value);
  EXPECT_EQ(result.stats.num_instances, direct.real_count);
}

TEST(QueryEngineTest, RunOnMatchesAgreesWithRun) {
  // A list Run scans itself and the caller's list (RunOnMatches) run
  // through the same executor: the same payload and the same batch
  // layout at every thread count and batch size.
  const TimeSeriesGraph paper = testing_util::PaperFig2Graph();
  const DatasetPreset& preset = AllPresets().front();
  const TimeSeriesGraph generated = GenerateDataset(preset, 0.05);
  struct Case {
    const TimeSeriesGraph* graph;
    Motif motif;
    Timestamp delta;
    Flow phi;
  };
  const Case cases[] = {
      {&paper, M33(), 10, 5.0},
      {&generated, *MotifCatalog::ByName("M(3,2)"), preset.default_delta,
       preset.default_phi}};

  for (const Case& c : cases) {
    const QueryEngine engine(*c.graph);
    const std::vector<MatchBinding> matches =
        StructuralMatcher(*c.graph, c.motif).FindAllMatches();
    ASSERT_FALSE(matches.empty());
    for (QueryMode mode : {QueryMode::kEnumerate, QueryMode::kCount,
                           QueryMode::kTopK, QueryMode::kTop1}) {
      for (int threads : {1, 4}) {
        for (int64_t batch_size : {int64_t{0}, int64_t{1}}) {
          SCOPED_TRACE(c.motif.name() + " mode=" +
                       std::to_string(static_cast<int>(mode)) +
                       " threads=" + std::to_string(threads) +
                       " batch=" + std::to_string(batch_size));
          QueryOptions options = BaseOptions(mode, c.delta, c.phi);
          if (mode == QueryMode::kTopK) options.phi = 0.0;
          options.collect_limit = -1;
          options.k = 5;
          options.num_threads = threads;
          options.batch_size = batch_size;
          const QueryResult via_run = engine.Run(c.motif, options);
          const QueryResult via_matches =
              engine.RunOnMatches(c.motif, matches, options);
          ASSERT_TRUE(via_run.termination.complete());
          ASSERT_TRUE(via_matches.termination.complete());
          EXPECT_EQ(via_matches.stats.num_instances,
                    via_run.stats.num_instances);
          EXPECT_EQ(via_matches.stats.num_structural_matches,
                    via_run.stats.num_structural_matches);
          EXPECT_EQ(via_matches.stats.num_windows_processed,
                    via_run.stats.num_windows_processed);
          EXPECT_EQ(via_matches.instances, via_run.instances);
          ASSERT_EQ(via_matches.topk.size(), via_run.topk.size());
          for (size_t i = 0; i < via_run.topk.size(); ++i) {
            EXPECT_EQ(via_matches.topk[i].flow, via_run.topk[i].flow) << i;
            EXPECT_EQ(via_matches.topk[i].instance, via_run.topk[i].instance)
                << i;
          }
          EXPECT_EQ(via_matches.top1.found, via_run.top1.found);
          EXPECT_EQ(via_matches.top1.max_flow, via_run.top1.max_flow);
          EXPECT_EQ(via_matches.top1.best, via_run.top1.best);
          EXPECT_EQ(via_matches.top1.binding, via_run.top1.binding);
          EXPECT_EQ(via_matches.num_batches, via_run.num_batches);
          // Only Run has a P1 phase to time.
          EXPECT_EQ(via_matches.stats.phase1_seconds, 0.0);
        }
      }
    }
  }
}

TEST(QueryEngineTest, OneThreadRunIsOneBatchWithinWallTime) {
  // At one thread a run scans P1 in one pass and runs P2 as one batch —
  // the layout the serving path relies on — so the phase times are the
  // phases' wall times and fit in the end-to-end time, with or without
  // an active (never-tripping) control.
  const TimeSeriesGraph g = testing_util::PaperFig7Graph();
  const QueryEngine engine(g);
  for (QueryMode mode : {QueryMode::kEnumerate, QueryMode::kCount,
                         QueryMode::kTopK, QueryMode::kTop1}) {
    for (bool with_deadline : {false, true}) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " deadline=" + std::to_string(with_deadline));
      QueryOptions options = BaseOptions(mode, 10, 0.0);
      options.collect_limit = -1;
      if (with_deadline) {
        options.deadline = QueryDeadline::AfterSeconds(3600.0);
      }
      const QueryResult result = engine.Run(M33(), options);
      ASSERT_TRUE(result.termination.complete());
      ASSERT_GT(result.stats.num_structural_matches, 0);
      EXPECT_EQ(result.num_batches, 1);
      EXPECT_LE(result.stats.phase1_seconds + result.stats.phase2_seconds,
                result.wall_seconds);
    }
  }
}

TEST(QueryEngineTest, ZeroThreadsMeansHardwareParallelism) {
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  QueryOptions options = BaseOptions(QueryMode::kCount, 10, 5.0);
  options.num_threads = 0;
  const QueryResult result = engine.Run(M33(), options);
  EXPECT_EQ(result.threads_used, ThreadPool::DefaultParallelism());
}

TEST(QueryEngineTest, EmptyGraphNoMatches) {
  const TimeSeriesGraph g = testing_util::MakeGraph({{0, 1, 5, 1.0}});
  const QueryEngine engine(g);
  QueryOptions options = BaseOptions(QueryMode::kEnumerate, 10, 0.0);
  options.num_threads = 4;
  const QueryResult result = engine.Run(M33(), options);
  EXPECT_EQ(result.stats.num_instances, 0);
  EXPECT_EQ(result.stats.num_structural_matches, 0);
  EXPECT_EQ(result.num_batches, 0);
}

TEST(QueryEngineTest, ZeroMatchGraphThroughEveryMode) {
  // A single edge can never back M(3,3): the match list is empty, so
  // every mode, serial and parallel alike, must come back clean instead
  // of tripping over zero-size partitions.
  const TimeSeriesGraph g = testing_util::MakeGraph({{0, 1, 5, 1.0}});
  const QueryEngine engine(g);
  for (int threads : {1, 4}) {
    for (QueryMode mode :
         {QueryMode::kEnumerate, QueryMode::kCount, QueryMode::kTopK,
          QueryMode::kTop1, QueryMode::kSignificance}) {
      QueryOptions options = BaseOptions(mode, 10, 0.0);
      options.num_threads = threads;
      options.collect_limit = mode == QueryMode::kEnumerate ? -1 : 0;
      options.num_random_graphs = 3;
      const QueryResult result = engine.Run(M33(), options);
      EXPECT_EQ(result.stats.num_instances, 0)
          << "mode=" << static_cast<int>(mode) << " threads=" << threads;
      EXPECT_TRUE(result.instances.empty());
      EXPECT_TRUE(result.topk.empty());
      EXPECT_FALSE(result.top1.found);
      if (mode == QueryMode::kSignificance) {
        EXPECT_EQ(result.significance.real_count, 0);
      }
    }
  }
}

TEST(QueryEngineTest, CountersOnlyEnumerateMatchesCollectingCounters) {
  // Collecting instances (collect_limit == -1) and counting only
  // (collect_limit == 0) run the same kernel with and without a
  // visitor; their shared counters must agree.
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  QueryOptions collecting = BaseOptions(QueryMode::kEnumerate, 10, 0.0);
  collecting.num_threads = 4;
  collecting.collect_limit = -1;
  const QueryResult collected = engine.Run(M33(), collecting);

  QueryOptions counters_only = collecting;
  counters_only.collect_limit = 0;
  const QueryResult counted = engine.Run(M33(), counters_only);
  EXPECT_EQ(counted.stats.num_instances, collected.stats.num_instances);
  EXPECT_EQ(counted.stats.num_structural_matches,
            collected.stats.num_structural_matches);
  EXPECT_EQ(counted.stats.num_windows_processed,
            collected.stats.num_windows_processed);
  EXPECT_TRUE(counted.instances.empty());
}

TEST(QueryEngineTest, NanPhiIsInvalidInEveryMode) {
  // NaN fails every comparison, so a `phi < 0` test let it through to
  // the evaluators' own CHECKs, which abort; it is invalid input and
  // must end as a kError termination instead.
  const TimeSeriesGraph g = testing_util::PaperFig2Graph();
  const QueryEngine engine(g);
  const Flow nan = std::numeric_limits<Flow>::quiet_NaN();
  const auto expect_invalid = [](const Termination& termination,
                                 const std::string& label) {
    EXPECT_EQ(termination.code, TerminationCode::kError) << label;
    EXPECT_EQ(termination.status.code(), StatusCode::kInvalidArgument)
        << label;
  };
  for (const QueryMode mode :
       {QueryMode::kEnumerate, QueryMode::kCount, QueryMode::kTopK,
        QueryMode::kTop1, QueryMode::kSignificance}) {
    QueryOptions options = BaseOptions(mode, 10, nan);
    options.num_random_graphs = 3;
    const std::string label = "mode=" + std::to_string(static_cast<int>(mode));
    expect_invalid(engine.Run(M33(), options).termination, label);
    if (mode != QueryMode::kSignificance) {
      expect_invalid(engine.RunOnMatches(M33(), {}, options).termination,
                     label + " RunOnMatches");
    }
  }
  const SweepResult sweep =
      engine.RunSweep(M33(), SweepQuery{{10}, {1.0, nan}}, QueryOptions());
  expect_invalid(sweep.termination, "RunSweep");
  EXPECT_TRUE(sweep.counts.empty());
}

}  // namespace
}  // namespace flowmotif
