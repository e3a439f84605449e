// The engine's central promise: parallelism — in phase P1 (structural
// matching) and phase P2 alike, including the streamed P1→P2 pipeline —
// never changes any result. For random graphs from the gen/ presets and
// threads in {1, 2, 4, 8}, every mode must produce byte-identical
// output — the same instance sets, the same deterministic counters, the
// same top-k entries — with the single documented exception of the
// top-k pruning counters, which depend on how fast the floating
// threshold tightened.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/match_list.h"
#include "core/motif_catalog.h"
#include "core/structural_match.h"
#include "engine/executor.h"
#include "engine/match_list_cache.h"
#include "engine/query_engine.h"
#include "gen/presets.h"
#include "util/thread_pool.h"

namespace flowmotif {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct Workload {
  TimeSeriesGraph graph;
  Motif motif;
  Timestamp delta;
  Flow phi;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> workloads;
  for (const DatasetPreset& preset : AllPresets()) {
    // Small but non-trivial samples: hundreds of interactions, enough
    // matches that every thread count actually splits work.
    const TimeSeriesGraph graph = GenerateDataset(preset, 0.05);
    workloads.push_back({graph, *MotifCatalog::ByName("M(3,2)"),
                         preset.default_delta, preset.default_phi});
    workloads.push_back({graph, *MotifCatalog::ByName("M(3,3)"),
                         preset.default_delta, 0.0});
    // A general (non-path) motif exercises the per-first-edge P1 work
    // units and the pair-table DFS branch through the whole engine.
    workloads.push_back({graph, *Motif::Parse("0>1,0>2", "fanout"),
                         preset.default_delta, 0.0});
  }
  return workloads;
}

TEST(ParallelEquivalenceTest, P1MatchListIdenticalAcrossThreadCounts) {
  for (const Workload& w : Workloads()) {
    const StructuralMatcher matcher(w.graph, w.motif);
    const std::vector<MatchBinding> serial = matcher.FindAllMatches();
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      ASSERT_EQ(matcher.FindAllMatchesParallel(&pool), serial)
          << w.motif.name() << " threads=" << threads;
    }
  }
}

TEST(ParallelEquivalenceTest, ExecutorMatchListEqualsFindAllMatches) {
  // The executor's flat P1 scan (shards appended into MatchLists and
  // concatenated in unit order) holds exactly FindAllMatches(), match
  // for match and vertex for vertex, at every thread count.
  for (const Workload& w : Workloads()) {
    const StructuralMatcher matcher(w.graph, w.motif);
    const std::vector<MatchBinding> serial = matcher.FindAllMatches();
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      const MatchList flat = FindMatchesControlled(matcher, &pool, nullptr);
      ASSERT_EQ(flat.stride(), w.motif.num_nodes());
      ASSERT_EQ(flat.size(), static_cast<int64_t>(serial.size()))
          << w.motif.name() << " threads=" << threads;
      for (int64_t i = 0; i < flat.size(); ++i) {
        ASSERT_EQ(flat[i].ToBinding(), serial[static_cast<size_t>(i)])
            << w.motif.name() << " threads=" << threads << " match " << i;
      }
    }
  }
}

TEST(ParallelEquivalenceTest, MatchListCacheNeverChangesResults) {
  // Run with an injected match-list cache equals Run without one: on the
  // miss that fills the cache (P1 runs to completion before P2) and on
  // the hits that skip P1, in every P2 mode, at threads {1, 4}.
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    for (int threads : {1, 4}) {
      MatchListCache cache(w.graph.topology_identity(), size_t{1} << 24);
      for (const QueryMode mode : {QueryMode::kCount, QueryMode::kEnumerate,
                                   QueryMode::kTopK, QueryMode::kTop1}) {
        QueryOptions options;
        options.mode = mode;
        options.delta = w.delta;
        options.phi = mode == QueryMode::kTopK ? 0.0 : w.phi;
        options.k = 10;
        options.collect_limit = -1;
        options.num_threads = threads;
        const QueryResult plain = engine.Run(w.motif, options);
        options.match_list_cache = &cache;
        for (int pass = 0; pass < 2; ++pass) {
          const int64_t hits = cache.hits();
          const QueryResult cached = engine.Run(w.motif, options);
          const std::string context = w.motif.name() + " threads=" +
                                      std::to_string(threads) + " mode=" +
                                      std::to_string(static_cast<int>(mode)) +
                                      " pass=" + std::to_string(pass);
          ASSERT_TRUE(cached.termination.complete()) << context;
          ASSERT_EQ(cached.stats.num_instances, plain.stats.num_instances)
              << context;
          ASSERT_EQ(cached.stats.num_structural_matches,
                    plain.stats.num_structural_matches)
              << context;
          ASSERT_EQ(cached.stats.num_windows_processed,
                    plain.stats.num_windows_processed)
              << context;
          ASSERT_EQ(cached.stats.num_phi_prunes, plain.stats.num_phi_prunes)
              << context;
          ASSERT_EQ(cached.memo_hits, plain.memo_hits) << context;
          ASSERT_EQ(cached.instances, plain.instances) << context;
          ASSERT_EQ(cached.topk.size(), plain.topk.size()) << context;
          for (size_t i = 0; i < plain.topk.size(); ++i) {
            ASSERT_EQ(cached.topk[i].flow, plain.topk[i].flow) << context;
            ASSERT_EQ(cached.topk[i].instance, plain.topk[i].instance)
                << context;
          }
          ASSERT_EQ(cached.top1.found, plain.top1.found) << context;
          ASSERT_EQ(cached.top1.best, plain.top1.best) << context;
          ASSERT_EQ(cached.top1.binding, plain.top1.binding) << context;
          // Only the first run of the motif misses; a hit runs no P1.
          const bool hit = cache.hits() > hits;
          ASSERT_EQ(hit, pass > 0 || mode != QueryMode::kCount) << context;
          if (hit) {
            ASSERT_EQ(cached.stats.phase1_seconds, 0.0) << context;
          }
        }
      }
    }
  }
}

TEST(ParallelEquivalenceTest, StreamedCountersIdenticalAcrossThreadCounts) {
  // collect_limit == 0 routes threads > 1 through the streamed P1→P2
  // pipeline; all deterministic counters must match the serial run.
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    QueryOptions options;
    options.mode = QueryMode::kEnumerate;
    options.delta = w.delta;
    options.phi = w.phi;
    options.collect_limit = 0;

    options.num_threads = 1;
    const QueryResult serial = engine.Run(w.motif, options);
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      const QueryResult streamed = engine.Run(w.motif, options);
      ASSERT_EQ(streamed.stats.num_instances, serial.stats.num_instances)
          << w.motif.name() << " threads=" << threads;
      ASSERT_EQ(streamed.stats.num_structural_matches,
                serial.stats.num_structural_matches);
      ASSERT_EQ(streamed.stats.num_windows_processed,
                serial.stats.num_windows_processed);
      ASSERT_EQ(streamed.stats.num_phi_prunes, serial.stats.num_phi_prunes);
      ASSERT_EQ(streamed.stats.num_domination_skips,
                serial.stats.num_domination_skips);
    }
  }
}

TEST(ParallelEquivalenceTest, EnumerateIdenticalAcrossThreadCounts) {
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    QueryOptions options;
    options.mode = QueryMode::kEnumerate;
    options.delta = w.delta;
    options.phi = w.phi;
    options.collect_limit = -1;

    options.num_threads = 1;
    const QueryResult serial = engine.Run(w.motif, options);
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      const QueryResult parallel = engine.Run(w.motif, options);
      ASSERT_EQ(parallel.stats.num_instances, serial.stats.num_instances)
          << w.motif.name() << " threads=" << threads;
      ASSERT_EQ(parallel.stats.num_structural_matches,
                serial.stats.num_structural_matches);
      ASSERT_EQ(parallel.stats.num_windows_processed,
                serial.stats.num_windows_processed);
      ASSERT_EQ(parallel.stats.num_phi_prunes, serial.stats.num_phi_prunes);
      ASSERT_EQ(parallel.stats.num_domination_skips,
                serial.stats.num_domination_skips);
      // The full materialized instance sets, in the same order.
      ASSERT_EQ(parallel.instances, serial.instances)
          << w.motif.name() << " threads=" << threads;
    }
  }
}

TEST(ParallelEquivalenceTest, StreamedEnumerateWithCollectLimitStaysIdentical) {
  // threads > 1 with a collect limit routes through the streamed P1→P2
  // pipeline (shards released out of order): the collected prefix must
  // still be the serial discovery-order prefix, exactly.
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    QueryOptions options;
    options.mode = QueryMode::kEnumerate;
    options.delta = w.delta;
    options.phi = w.phi;
    for (const int64_t limit : {int64_t{7}, int64_t{-1}}) {
      options.collect_limit = limit;
      options.num_threads = 1;
      options.batch_size = 0;
      const QueryResult serial = engine.Run(w.motif, options);
      for (int threads : {2, 8}) {
        options.num_threads = threads;
        // Tiny batches on the larger thread count stress the
        // out-of-order merge far harder than the derived size.
        options.batch_size = threads == 8 ? 1 : 0;
        const QueryResult streamed = engine.Run(w.motif, options);
        ASSERT_EQ(streamed.instances, serial.instances)
            << w.motif.name() << " threads=" << threads
            << " limit=" << limit;
        ASSERT_EQ(streamed.stats.num_instances, serial.stats.num_instances);
        ASSERT_EQ(streamed.stats.num_structural_matches,
                  serial.stats.num_structural_matches);
      }
    }
  }
}

TEST(ParallelEquivalenceTest, CountIdenticalAcrossThreadCounts) {
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    QueryOptions options;
    options.mode = QueryMode::kCount;
    options.delta = w.delta;
    options.phi = w.phi;

    options.num_threads = 1;
    const QueryResult serial = engine.Run(w.motif, options);
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      const QueryResult parallel = engine.Run(w.motif, options);
      ASSERT_EQ(parallel.stats.num_instances, serial.stats.num_instances)
          << w.motif.name() << " threads=" << threads;
      ASSERT_EQ(parallel.memo_hits, serial.memo_hits);
      ASSERT_EQ(parallel.stats.num_windows_processed,
                serial.stats.num_windows_processed);
    }
  }
}

TEST(ParallelEquivalenceTest, TopKIdenticalAcrossThreadCounts) {
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    QueryOptions options;
    options.mode = QueryMode::kTopK;
    options.delta = w.delta;
    options.phi = 0.0;
    options.k = 10;

    options.num_threads = 1;
    const QueryResult serial = engine.Run(w.motif, options);
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      const QueryResult parallel = engine.Run(w.motif, options);
      ASSERT_EQ(parallel.topk.size(), serial.topk.size())
          << w.motif.name() << " threads=" << threads;
      for (size_t i = 0; i < serial.topk.size(); ++i) {
        ASSERT_DOUBLE_EQ(parallel.topk[i].flow, serial.topk[i].flow)
            << w.motif.name() << " threads=" << threads << " entry " << i;
        ASSERT_EQ(parallel.topk[i].instance, serial.topk[i].instance)
            << w.motif.name() << " threads=" << threads << " entry " << i;
      }
    }
  }
}

TEST(ParallelEquivalenceTest, Top1IdenticalAcrossThreadCounts) {
  for (const Workload& w : Workloads()) {
    QueryEngine engine(w.graph);
    QueryOptions options;
    options.mode = QueryMode::kTop1;
    options.delta = w.delta;

    options.num_threads = 1;
    const QueryResult serial = engine.Run(w.motif, options);
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      const QueryResult parallel = engine.Run(w.motif, options);
      ASSERT_EQ(parallel.top1.found, serial.top1.found)
          << w.motif.name() << " threads=" << threads;
      if (serial.top1.found) {
        ASSERT_DOUBLE_EQ(parallel.top1.max_flow, serial.top1.max_flow);
        ASSERT_EQ(parallel.top1.best, serial.top1.best);
        ASSERT_EQ(parallel.top1.binding, serial.top1.binding);
      }
      ASSERT_EQ(parallel.stats.num_windows_processed,
                serial.stats.num_windows_processed);
    }
  }
}

TEST(ParallelEquivalenceTest, SignificanceIdenticalAcrossThreadCounts) {
  // One preset is enough here: each report runs 1 + num_random_graphs
  // full counts.
  const DatasetPreset& preset = GetPreset(DatasetKind::kBitcoin);
  const TimeSeriesGraph graph = GenerateDataset(preset, 0.03);
  QueryEngine engine(graph);
  QueryOptions options;
  options.mode = QueryMode::kSignificance;
  options.delta = preset.default_delta;
  options.phi = preset.default_phi;
  options.num_random_graphs = 8;
  options.seed = 11;

  options.num_threads = 1;
  const QueryResult serial =
      engine.Run(*MotifCatalog::ByName("M(3,2)"), options);
  for (int threads : kThreadCounts) {
    options.num_threads = threads;
    const QueryResult parallel =
        engine.Run(*MotifCatalog::ByName("M(3,2)"), options);
    ASSERT_EQ(parallel.significance.real_count,
              serial.significance.real_count)
        << "threads=" << threads;
    ASSERT_EQ(parallel.significance.random_counts,
              serial.significance.random_counts);
    ASSERT_DOUBLE_EQ(parallel.significance.z_score,
                     serial.significance.z_score);
    ASSERT_DOUBLE_EQ(parallel.significance.p_value,
                     serial.significance.p_value);
  }
}

TEST(ParallelEquivalenceTest, ExplicitSmallBatchesStayIdentical) {
  // Forcing many tiny batches exercises the merge logic far harder than
  // the derived batch size does.
  const DatasetPreset& preset = GetPreset(DatasetKind::kFacebook);
  const TimeSeriesGraph graph = GenerateDataset(preset, 0.05);
  QueryEngine engine(graph);
  const Motif motif = *MotifCatalog::ByName("M(3,2)");

  QueryOptions options;
  options.mode = QueryMode::kTopK;
  options.delta = preset.default_delta;
  options.k = 5;
  options.num_threads = 1;
  const QueryResult serial = engine.Run(motif, options);

  options.num_threads = 8;
  options.batch_size = 1;
  const QueryResult parallel = engine.Run(motif, options);
  ASSERT_EQ(parallel.topk.size(), serial.topk.size());
  for (size_t i = 0; i < serial.topk.size(); ++i) {
    ASSERT_DOUBLE_EQ(parallel.topk[i].flow, serial.topk[i].flow) << i;
    ASSERT_EQ(parallel.topk[i].instance, serial.topk[i].instance) << i;
  }
}

}  // namespace
}  // namespace flowmotif
