// Property tests of core/window_cursor.h's SharedWindowCache, read
// through its per-thread Reader: lists served from the cache are
// identical to uncached ComputeProcessedWindows results under concurrent
// readers (threads {2, 4, 8}), racing inserts of the same pair
// deduplicate to one pointer, the two-generation clock rotates instead
// of declining and promotes touched entries, a reader's list stays exact
// until its next call however many rotations happen under it, and a
// reader pins at most two generations.
#include "core/window_cursor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/motif_catalog.h"
#include "core/sliding_window.h"
#include "graph/time_series_graph.h"
#include "test_util.h"
#include "util/random.h"

namespace flowmotif {
namespace {

/// Random graph with enough distinct pair edges to exercise many cache
/// keys.
TimeSeriesGraph RandomGraph(uint64_t seed, int num_vertices,
                            int num_interactions, Timestamp time_span) {
  Rng rng(seed);
  InteractionGraph g;
  for (int i = 0; i < num_interactions; ++i) {
    const auto src = static_cast<VertexId>(
        rng.NextBounded(static_cast<uint64_t>(num_vertices)));
    auto dst = static_cast<VertexId>(
        rng.NextBounded(static_cast<uint64_t>(num_vertices)));
    if (dst == src) dst = (dst + 1) % num_vertices;
    const auto t = static_cast<Timestamp>(
        rng.NextBounded(static_cast<uint64_t>(time_span)));
    const Flow f = 1.0 + static_cast<Flow>(rng.NextBounded(5));
    const Status s = g.AddEdge(src, dst, t, f);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return TimeSeriesGraph::Build(g);
}

/// Every ordered pair of distinct pair-edge series in the graph — the
/// key population the evaluation paths present to the cache.
std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> AllSeriesPairs(
    const TimeSeriesGraph& graph) {
  std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs;
  for (int64_t a = 0; a < graph.num_pairs(); ++a) {
    for (int64_t b = 0; b < graph.num_pairs(); ++b) {
      pairs.emplace_back(&graph.pair(static_cast<size_t>(a)).series,
                         &graph.pair(static_cast<size_t>(b)).series);
    }
  }
  return pairs;
}

TEST(SharedWindowCacheTest, ServesExactWindowLists) {
  const TimeSeriesGraph graph = RandomGraph(11, 5, 70, 40);
  for (const Timestamp delta : {Timestamp{0}, Timestamp{5}, Timestamp{20}}) {
    SharedWindowCache cache(delta);
    SharedWindowCache::Reader reader(&cache, delta);
    for (const auto& [first, last] : AllSeriesPairs(graph)) {
      const std::vector<Window>* cached = &reader.Get(*first, *last);
      EXPECT_EQ(*cached, ComputeProcessedWindows(*first, *last, delta));
      // A second lookup returns the very same published list.
      EXPECT_EQ(&reader.Get(*first, *last), cached);
    }
  }
}

TEST(SharedWindowCacheTest, ConcurrentReadersSeeIdenticalLists) {
  // Many threads hammer the same key population — every thread races
  // both the builds and the reads — and each must observe exactly the
  // uncached result for every pair, every time.
  const TimeSeriesGraph graph = RandomGraph(23, 6, 90, 50);
  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  constexpr Timestamp kDelta = 8;

  std::vector<std::vector<Window>> expected;
  expected.reserve(pairs.size());
  for (const auto& [first, last] : pairs) {
    expected.push_back(ComputeProcessedWindows(*first, *last, kDelta));
  }

  for (int num_threads : {2, 4, 8}) {
    SharedWindowCache cache(kDelta);
    std::atomic<int64_t> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
      // Each thread starts at a different offset so builds and reads of
      // the same pair interleave across threads.
      threads.emplace_back([&, t] {
        SharedWindowCache::Reader reader(&cache, kDelta);
        const size_t n = pairs.size();
        for (int round = 0; round < 3; ++round) {
          for (size_t i = 0; i < n; ++i) {
            const size_t at = (i + static_cast<size_t>(t) * n /
                                       static_cast<size_t>(num_threads)) %
                              n;
            if (reader.Get(*pairs[at].first, *pairs[at].second) !=
                expected[at]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << num_threads;
    EXPECT_EQ(cache.size(), pairs.size()) << "threads=" << num_threads;
  }
}

TEST(SharedWindowCacheTest, RacingInsertsDeduplicateToOnePointer) {
  // All threads request the same single pair; whoever loses the CAS
  // race must adopt the winner's list, so every thread ends up with the
  // one published pointer and the size counter settles at 1.
  const TimeSeriesGraph graph = RandomGraph(31, 4, 50, 30);
  const EdgeSeries& first = graph.pair(0).series;
  const EdgeSeries& last =
      graph.pair(static_cast<size_t>(graph.num_pairs()) - 1).series;

  for (int num_threads : {2, 4, 8}) {
    SharedWindowCache cache(/*delta=*/10);
    std::vector<const std::vector<Window>*> seen(
        static_cast<size_t>(num_threads), nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        SharedWindowCache::Reader reader(&cache, /*delta=*/10);
        seen[static_cast<size_t>(t)] = &reader.Get(first, last);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < num_threads; ++t) {
      EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
    }
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(*seen[0], ComputeProcessedWindows(first, last, 10));
  }
}

TEST(SharedWindowCacheTest, EnsembleViewsHitTheSameEntries) {
  // The cache keys on timestamp-storage identity, so the real graph and
  // its flow-permuted views must share entries: a list published for a
  // pair of the real graph is returned — same pointer — for the
  // corresponding pair of every view, and serving two views inserts
  // nothing new.
  const TimeSeriesGraph graph = RandomGraph(61, 5, 70, 40);
  Rng rng(17);
  const TimeSeriesGraph view_a = graph.WithPermutedFlows(&rng);
  const TimeSeriesGraph view_b = graph.WithPermutedFlows(&rng);
  constexpr Timestamp kDelta = 9;

  SharedWindowCache cache(kDelta);
  SharedWindowCache::Reader reader(&cache, kDelta);

  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  std::vector<const std::vector<Window>*> published;
  published.reserve(pairs.size());
  for (const auto& [first, last] : pairs) {
    published.push_back(&reader.Get(*first, *last));
  }
  const size_t size_after_real = cache.size();
  EXPECT_EQ(size_after_real, pairs.size());

  for (const TimeSeriesGraph* view : {&view_a, &view_b}) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      // The corresponding pair on the view: same pair indices, so the
      // series share timestamp identity with the real graph's.
      const size_t a = i / static_cast<size_t>(graph.num_pairs());
      const size_t b = i % static_cast<size_t>(graph.num_pairs());
      const EdgeSeries& first = view->pair(a).series;
      const EdgeSeries& last = view->pair(b).series;
      EXPECT_EQ(&reader.Get(first, last), published[i])
          << "view pair " << a << "," << b;
    }
  }
  // No new entries were inserted for the views.
  EXPECT_EQ(cache.size(), size_after_real);
}

TEST(SharedWindowCacheTest, ConcurrentEnsembleReadersSeeIdenticalLists) {
  // Concurrent readers on the real graph and two permuted views: every
  // thread reads through a different graph of the ensemble, all must
  // observe exactly the uncached window list for the underlying
  // timestamp pair, and the entry population stays that of one graph.
  const TimeSeriesGraph graph = RandomGraph(67, 5, 80, 50);
  Rng rng(23);
  const TimeSeriesGraph view_a = graph.WithPermutedFlows(&rng);
  const TimeSeriesGraph view_b = graph.WithPermutedFlows(&rng);
  const TimeSeriesGraph* graphs[] = {&graph, &view_a, &view_b};
  constexpr Timestamp kDelta = 11;

  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  std::vector<std::vector<Window>> expected;
  expected.reserve(pairs.size());
  for (const auto& [first, last] : pairs) {
    expected.push_back(ComputeProcessedWindows(*first, *last, kDelta));
  }

  for (int num_threads : {2, 4, 8}) {
    SharedWindowCache cache(kDelta);
    std::atomic<int64_t> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        SharedWindowCache::Reader reader(&cache, kDelta);
        const TimeSeriesGraph& mine = *graphs[static_cast<size_t>(t) % 3];
        const size_t np = static_cast<size_t>(mine.num_pairs());
        for (int round = 0; round < 3; ++round) {
          for (size_t i = 0; i < np * np; ++i) {
            const size_t at =
                (i + static_cast<size_t>(t) * 7) % (np * np);
            const EdgeSeries& first = mine.pair(at / np).series;
            const EdgeSeries& last = mine.pair(at % np).series;
            if (reader.Get(first, last) != expected[at]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << num_threads;
    EXPECT_EQ(cache.size(), pairs.size()) << "threads=" << num_threads;
  }
}

TEST(SharedWindowCacheTest, GenerationalServesExactListsUnderForcedRotation) {
  // A cache with a tiny per-generation cap is driven over a key
  // population far larger than the cap: every answer must still be the
  // exact uncached list, and the traffic must have forced rotations.
  const TimeSeriesGraph graph = RandomGraph(83, 6, 90, 50);
  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  constexpr Timestamp kDelta = 7;
  constexpr size_t kCap = 3;
  ASSERT_GT(pairs.size(), 2 * kCap);

  SharedWindowCache cache(kDelta, kCap);
  SharedWindowCache::Reader reader(&cache, kDelta);
  for (int round = 0; round < 2; ++round) {
    for (const auto& [first, last] : pairs) {
      EXPECT_EQ(reader.Get(*first, *last),
                ComputeProcessedWindows(*first, *last, kDelta));
    }
  }
  EXPECT_GT(cache.num_rotations(), 0);
  // Between rotations at most two generations are published.
  EXPECT_LE(cache.size(), 2 * kCap);
}

TEST(SharedWindowCacheTest, ReaderListStaysExactUntilNextCallUnderRotations) {
  // The reader contract: the list a Get returned stays valid — with its
  // original contents — until that reader's next call, even while four
  // other readers force the cap-2 cache through rotation after rotation
  // and the generation holding the list leaves the publication path. A
  // TSan target: the rotations race the held list's reads.
  const TimeSeriesGraph graph = RandomGraph(89, 6, 90, 50);
  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  constexpr Timestamp kDelta = 9;
  constexpr size_t kCap = 2;
  constexpr int kRotators = 4;

  std::vector<std::vector<Window>> expected;
  expected.reserve(pairs.size());
  for (const auto& [first, last] : pairs) {
    expected.push_back(ComputeProcessedWindows(*first, *last, kDelta));
  }

  SharedWindowCache cache(kDelta, kCap);
  std::atomic<bool> done{false};
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> rotators;
  for (int t = 0; t < kRotators; ++t) {
    rotators.emplace_back([&, t] {
      SharedWindowCache::Reader reader(&cache, kDelta);
      const size_t n = pairs.size();
      for (size_t i = 0; !done.load(std::memory_order_relaxed); ++i) {
        const size_t at = (i * 31 + static_cast<size_t>(t) * 7) % n;
        if (reader.Get(*pairs[at].first, *pairs[at].second) !=
            expected[at]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  SharedWindowCache::Reader holder(&cache, kDelta);
  int64_t held_across = 0;  // lists that outlived >= 2 foreign rotations
  for (size_t i = 0; i < pairs.size(); i += 7) {
    const std::vector<Window>& held =
        holder.Get(*pairs[i].first, *pairs[i].second);
    // Hold the list until the others have rotated at least twice —
    // its generation is then unpublished and only the lease keeps it.
    const int64_t start = cache.num_rotations();
    for (int spin = 0; spin < 100000 && cache.num_rotations() < start + 2;
         ++spin) {
      std::this_thread::yield();
    }
    if (cache.num_rotations() >= start + 2) ++held_across;
    EXPECT_EQ(held, expected[i]) << "pair " << i;
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& thread : rotators) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(held_across, 0);
}

TEST(SharedWindowCacheTest, ReaderPinsAtMostTwoGenerations) {
  // One reader driven through >= 1,000 rotations: a returned list always
  // lives in the reader's current lease pair, so the reader never holds
  // on to a generation the cache moved past, and the live generations
  // stay at the cache's two however long the reader runs.
  const TimeSeriesGraph graph = RandomGraph(91, 6, 90, 50);
  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  constexpr Timestamp kDelta = 9;

  SharedWindowCache cache(kDelta, /*max_entries=*/2);
  SharedWindowCache::Reader reader(&cache, kDelta);
  int64_t max_live = 0;
  for (int round = 0; round < 100 && cache.num_rotations() < 1000; ++round) {
    for (const auto& [first, last] : pairs) {
      reader.Get(*first, *last);
      max_live = std::max(max_live, cache.num_live_generations());
    }
  }
  ASSERT_GE(cache.num_rotations(), 1000);
  EXPECT_LE(max_live, 2);
  EXPECT_LE(cache.num_live_generations(), 2);
}

TEST(SharedWindowCacheTest, PromotedPrevHitSurvivesRotationUntouchedDoesNot) {
  // The two-generation clock: an entry touched while in the previous
  // generation is promoted into the current one and survives the next
  // rotation; an untouched neighbor ages out and must be recomputed.
  const TimeSeriesGraph graph = RandomGraph(31, 4, 50, 30);
  ASSERT_GE(graph.num_pairs(), 4);
  const EdgeSeries& target = graph.pair(0).series;
  const EdgeSeries& filler_b = graph.pair(1).series;
  const EdgeSeries& filler_c = graph.pair(2).series;
  const EdgeSeries& filler_d = graph.pair(3).series;
  constexpr Timestamp kDelta = 10;

  SharedWindowCache cache(kDelta, /*max_entries=*/2);
  SharedWindowCache::Reader reader(&cache, kDelta);

  // Generation 1 fills with {target, B}; C finds it full and rotates.
  reader.Get(target, target);
  reader.Get(filler_b, filler_b);
  reader.Get(filler_c, filler_c);
  ASSERT_EQ(cache.num_rotations(), 1);

  // Touch the target while it sits in the previous generation: a hit,
  // promoted into the current one.
  int64_t hits_before = cache.num_hits();
  reader.Get(target, target);
  EXPECT_EQ(cache.num_hits(), hits_before + 1);

  // D finds the current generation {C, target-copy} full and rotates
  // again; generation 1 (with untouched B) leaves the publication path.
  reader.Get(filler_d, filler_d);
  ASSERT_EQ(cache.num_rotations(), 2);

  // The promoted target still hits; untouched B misses (recomputed, so
  // still exact — just not a hit).
  hits_before = cache.num_hits();
  EXPECT_EQ(reader.Get(target, target),
            ComputeProcessedWindows(target, target, kDelta));
  EXPECT_EQ(cache.num_hits(), hits_before + 1);

  hits_before = cache.num_hits();
  EXPECT_EQ(reader.Get(filler_b, filler_b),
            ComputeProcessedWindows(filler_b, filler_b, kDelta));
  EXPECT_EQ(cache.num_hits(), hits_before);  // miss: aged out
}

TEST(SharedWindowCacheTest, ConcurrentLeasedReadersUnderTinyCap) {
  // Several threads, each with its own reader, hammer a key population
  // far beyond the per-generation cap so rotations race with lookups,
  // promotions, and inserts. Every answer must be exact.
  const TimeSeriesGraph graph = RandomGraph(101, 6, 90, 50);
  const std::vector<std::pair<const EdgeSeries*, const EdgeSeries*>> pairs =
      AllSeriesPairs(graph);
  constexpr Timestamp kDelta = 12;
  constexpr size_t kCap = 3;

  std::vector<std::vector<Window>> expected;
  expected.reserve(pairs.size());
  for (const auto& [first, last] : pairs) {
    expected.push_back(ComputeProcessedWindows(*first, *last, kDelta));
  }

  for (int num_threads : {2, 4}) {
    SharedWindowCache cache(kDelta, kCap);
    std::atomic<int64_t> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        SharedWindowCache::Reader reader(&cache, kDelta);
        const size_t n = pairs.size();
        for (int round = 0; round < 3; ++round) {
          for (size_t i = 0; i < n; ++i) {
            const size_t at = (i * 31 + static_cast<size_t>(t) * 7) % n;
            if (reader.Get(*pairs[at].first, *pairs[at].second) !=
                expected[at]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << num_threads;
    EXPECT_GT(cache.num_rotations(), 0) << "threads=" << num_threads;
  }
}

TEST(SharedWindowCacheTest, ReaderWithoutCacheComputesEveryList) {
  // A reader without a cache computes every list into its own buffer.
  const TimeSeriesGraph graph = RandomGraph(103, 4, 50, 30);
  constexpr Timestamp kDelta = 6;
  SharedWindowCache::Reader reader(nullptr, kDelta);
  for (const auto& [first, last] : AllSeriesPairs(graph)) {
    EXPECT_EQ(reader.Get(*first, *last),
              ComputeProcessedWindows(*first, *last, kDelta));
  }
}

}  // namespace
}  // namespace flowmotif
