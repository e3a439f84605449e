// The engine's central promise: parallelism — in phase P1 (structural
// matching) and in the phase-P2 batches over its list alike — never
// changes any result. For random graphs from the gen/ presets and
// threads in {1, 2, 4, 8}, every mode must produce byte-identical
// output — the same instance sets, the same deterministic counters, the
// same top-k entries — with the single documented exception of the
// top-k pruning counters, which depend on how fast the floating
// threshold tightened. Likewise, the per-match evaluators' reused
// scratch and their window-list gate never change any result.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/counter.h"
#include "core/dp.h"
#include "core/enumerator.h"
#include "core/match_list.h"
#include "core/motif_catalog.h"
#include "core/sliding_window.h"
#include "core/structural_match.h"
#include "engine/match_list_cache.h"
#include "engine/query_engine.h"
#include "gen/presets.h"
#include "graph/interaction_graph.h"
#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/random.h"
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
  // The one flat P1 scan (work-unit ranges appended into MatchLists and
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
  // collect_limit == 0 keeps only counters: at threads > 1 the pooled
  // scan and out-of-order P2 batches must still match every
  // deterministic counter of the serial run.
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
  // threads > 1 with a collect limit: P2 batches finish out of order,
  // yet the collected prefix must still be the serial discovery-order
  // prefix, exactly.
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
        const QueryResult parallel = engine.Run(w.motif, options);
        ASSERT_EQ(parallel.instances, serial.instances)
            << w.motif.name() << " threads=" << threads
            << " limit=" << limit;
        ASSERT_EQ(parallel.stats.num_instances, serial.stats.num_instances);
        ASSERT_EQ(parallel.stats.num_structural_matches,
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

// ---------------------------------------------------------------------------
// Scratch reuse and the window-list gate
// ---------------------------------------------------------------------------

/// One emitted view, copied: binding, per-edge slices, window and flow.
struct ViewRecord {
  MatchBinding binding;
  std::vector<std::tuple<const EdgeSeries*, size_t, size_t>> slices;
  Window window;
  Flow flow;

  friend bool operator==(const ViewRecord& a, const ViewRecord& b) {
    return a.binding == b.binding && a.slices == b.slices &&
           a.window == b.window && a.flow == b.flow;
  }
};

ViewRecord Record(const InstanceView& view) {
  ViewRecord record{view.binding.ToBinding(), {}, view.window, view.flow};
  for (const EdgeSlice& slice : *view.slices) {
    record.slices.emplace_back(slice.series, slice.begin, slice.end);
  }
  return record;
}

/// Random small graph with integer flows and a narrow time range, so
/// repeated timestamps and phi ties are common.
TimeSeriesGraph RandomGraph(uint64_t seed) {
  Rng rng(seed);
  InteractionGraph g;
  const int num_vertices = 4 + static_cast<int>(seed % 3);
  for (int i = 0; i < 70; ++i) {
    const auto src = static_cast<VertexId>(
        rng.NextBounded(static_cast<uint64_t>(num_vertices)));
    auto dst = static_cast<VertexId>(
        rng.NextBounded(static_cast<uint64_t>(num_vertices)));
    if (dst == src) dst = (dst + 1) % num_vertices;
    const auto t = static_cast<Timestamp>(rng.NextBounded(60));
    const Flow f = 1.0 + static_cast<Flow>(rng.NextBounded(5));
    EXPECT_TRUE(g.AddEdge(src, dst, t, f).ok());
  }
  return TimeSeriesGraph::Build(g);
}

/// Exactly `expected` window elements were charged to `control`: the
/// run completed under a cap of `expected`, and one more element
/// crosses it.
void ExpectCharged(QueryControl* control, int64_t expected,
                   const std::string& label) {
  EXPECT_TRUE(control->Finish().complete()) << label;
  control->ChargeWindowElements(1, failpoint::kCacheWindows);
  EXPECT_EQ(control->Finish().code, TerminationCode::kBudgetExceeded)
      << label << ": fewer than " << expected << " elements charged";
}

TEST(ParallelEquivalenceTest, ScratchReuseAndWindowGateAreInvisible) {
  // The counter, the enumerator and the DP each carry ONE scratch (and
  // one charging reader) across the matches of every catalog motif and
  // the fan-out shape, in a shuffled motif order, and must equal a fresh
  // scratch and reader per match. The bitcoin-like graph is the sparse
  // case, where the gate ends most matches before any set-up.
  std::vector<std::pair<std::string, TimeSeriesGraph>> graphs;
  for (const uint64_t seed : {3u, 17u, 41u}) {
    graphs.emplace_back("random seed=" + std::to_string(seed),
                        RandomGraph(seed));
  }
  graphs.emplace_back(
      "bitcoin", GenerateDataset(GetPreset(DatasetKind::kBitcoin), 0.05));
  constexpr Flow kPhi = 2.0;
  Rng shuffle_rng(5);

  for (const auto& [graph_name, graph] : graphs) {
    int64_t num_matches = 0;
    int64_t gated_matches = 0;  // matches without windows
    for (const Timestamp delta :
         {Timestamp{0}, Timestamp{10}, Timestamp{1000}}) {
      const std::string at =
          graph_name + " delta=" + std::to_string(delta) + " ";
      std::vector<Motif> motifs = MotifCatalog::All();
      motifs.push_back(*Motif::Parse("0>1,0>2", "fanout"));
      for (size_t i = motifs.size() - 1; i > 0; --i) {
        std::swap(motifs[i], motifs[shuffle_rng.NextBounded(i + 1)]);
      }
      std::vector<MatchList> lists;
      int64_t total_elements = 0;
      for (const Motif& motif : motifs) {
        lists.push_back(MatchList::FromBindings(
            StructuralMatcher(graph, motif).FindAllMatches(),
            motif.num_nodes()));
        for (int64_t i = 0; i < lists.back().size(); ++i) {
          const MatchRef match = lists.back()[i];
          const EdgeSeries* first =
              ResolveEdgeSeries(graph, motif, match, 0);
          const EdgeSeries* last =
              ResolveEdgeSeries(graph, motif, match, motif.num_edges() - 1);
          const int64_t size = static_cast<int64_t>(
              ComputeProcessedWindows(*first, *last, delta).size());
          total_elements += size;
          ++num_matches;
          if (size == 0) ++gated_matches;
        }
      }
      WorkBudget cap;
      cap.max_window_elements = total_elements;
      QueryControl counter_control(nullptr, QueryDeadline(), cap);
      QueryControl enum_control(nullptr, QueryDeadline(), cap);
      QueryControl dp_control(nullptr, QueryDeadline(), cap);
      WindowReader counter_windows(delta, &counter_control);
      WindowReader enum_windows(delta, &enum_control);
      InstanceCounter::Scratch counter_scratch;
      FlowMotifEnumerator::Scratch enum_scratch;
      MaxFlowDpSearcher::Scratch dp_scratch;

      for (size_t m = 0; m < motifs.size(); ++m) {
        const Motif& motif = motifs[m];
        const MatchList& matches = lists[m];
        const std::string label = at + motif.name();

        const InstanceCounter counter(graph, motif, delta, kPhi);
        InstanceCounter::Result reused;
        InstanceCounter::Result fresh;
        for (int64_t i = 0; i < matches.size(); ++i) {
          ASSERT_EQ(counter.CountMatch(matches[i], &reused, &counter_windows,
                                       &counter_scratch),
                    counter.CountMatch(matches[i], &fresh))
              << label << " match " << i;
        }
        EXPECT_EQ(reused.num_windows, fresh.num_windows) << label;
        EXPECT_EQ(reused.memo_hits, fresh.memo_hits) << label;

        EnumerationOptions eopts;
        eopts.delta = delta;
        eopts.phi = kPhi;
        eopts.query_control = &enum_control;
        const FlowMotifEnumerator enumerator(graph, motif, eopts);
        eopts.query_control = nullptr;
        const FlowMotifEnumerator uncharged(graph, motif, eopts);
        std::vector<ViewRecord> reused_views;
        std::vector<ViewRecord> fresh_views;
        EnumerationResult reused_stats;
        EnumerationResult fresh_stats;
        for (int64_t i = 0; i < matches.size(); ++i) {
          enumerator.EnumerateMatch(
              matches[i],
              [&](const InstanceView& view) {
                reused_views.push_back(Record(view));
                return true;
              },
              &reused_stats, &enum_windows, &enum_scratch);
          uncharged.EnumerateMatch(
              matches[i],
              [&](const InstanceView& view) {
                fresh_views.push_back(Record(view));
                return true;
              },
              &fresh_stats);
        }
        ASSERT_EQ(reused_views, fresh_views) << label;
        EXPECT_EQ(reused_stats.num_instances, fresh_stats.num_instances);
        EXPECT_EQ(reused_stats.num_windows_processed,
                  fresh_stats.num_windows_processed)
            << label;
        EXPECT_EQ(reused_stats.num_phi_prunes, fresh_stats.num_phi_prunes);
        EXPECT_EQ(reused_stats.num_domination_skips,
                  fresh_stats.num_domination_skips);
        EXPECT_EQ(reused_stats.num_windows_processed, reused.num_windows);

        // The DP's own loop over the list on the carried Scratch, against
        // each match on a fresh one, folded as the engine folds batches.
        const MaxFlowDpSearcher searcher(graph, motif, delta);
        const MaxFlowDpSearcher::Result carried = searcher.RunOnMatches(
            matches, 0, matches.size(), &dp_scratch, &dp_control);
        MaxFlowDpSearcher::Result folded;
        for (int64_t i = 0; i < matches.size(); ++i) {
          MaxFlowDpSearcher::Result one = searcher.RunOnMatch(matches[i]);
          folded.num_windows += one.num_windows;
          if (one.found && (!folded.found || one.max_flow > folded.max_flow)) {
            folded.found = true;
            folded.max_flow = one.max_flow;
            folded.best = std::move(one.best);
            folded.binding = std::move(one.binding);
            folded.window = one.window;
          }
        }
        ASSERT_EQ(carried.found, folded.found) << label;
        EXPECT_EQ(carried.num_windows, folded.num_windows) << label;
        EXPECT_EQ(carried.num_windows, reused.num_windows) << label;
        EXPECT_EQ(carried.matches_processed, matches.size()) << label;
        if (carried.found) {
          EXPECT_EQ(carried.max_flow, folded.max_flow) << label;
          EXPECT_EQ(carried.best, folded.best) << label;
          EXPECT_EQ(carried.binding, folded.binding) << label;
          EXPECT_TRUE(carried.window == folded.window) << label;
        }
        if (testing::Test::HasFailure()) return;
      }
      // Every list was charged once per evaluator, empty ones for 0.
      ExpectCharged(&counter_control, total_elements, at + "counter");
      ExpectCharged(&enum_control, total_elements, at + "enumerator");
      ExpectCharged(&dp_control, total_elements, at + "dp");
    }
    // Both sides of the gate ran; on the sparse graph most matches
    // stopped at it.
    EXPECT_GT(gated_matches, 0) << graph_name;
    EXPECT_LT(gated_matches, num_matches) << graph_name;
    if (graph_name == "bitcoin") {
      EXPECT_GT(2 * gated_matches, num_matches);
    }
  }
}

}  // namespace
}  // namespace flowmotif
