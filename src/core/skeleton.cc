#include "core/skeleton.h"

#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>  // malloc_trim
#endif

#include "core/skeleton_kernel.h"
#include "core/sliding_window.h"
#include "core/window_cursor.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/partition.h"
#include "util/thread_pool.h"

namespace flowmotif {

namespace {

constexpr uint32_t kInvalidState = std::numeric_limits<uint32_t>::max();

/// Pair-order block offsets of the flow prefix arena: pair p's series
/// contributes size + 1 prefix entries. Returns the total length.
/// Both the arena and the recorder derive offsets through this one
/// function, so their absolute indices agree by construction.
size_t BuildPrefixOffsets(const TimeSeriesGraph& graph,
                          std::vector<size_t>* offsets) {
  offsets->clear();
  offsets->reserve(static_cast<size_t>(graph.num_pairs()) + 1);
  size_t total = 0;
  for (const TimeSeriesGraph::PairEdge& pe : graph.pairs()) {
    offsets->push_back(total);
    total += pe.series.size() + 1;
  }
  offsets->push_back(total);
  return total;
}

/// Recovers a bound series' pair index by stride arithmetic: every
/// series ResolveMatchSeries yields is &pair(p).series, and the pairs
/// live in one contiguous array, so the index falls out of the address
/// difference — no per-lookup hashing in the per-match recording loop.
class SeriesPairIndexer {
 public:
  explicit SeriesPairIndexer(const TimeSeriesGraph& graph)
      : pairs_begin_(reinterpret_cast<const char*>(graph.pairs().data())),
        num_pairs_(static_cast<size_t>(graph.num_pairs())) {}

  size_t operator()(const EdgeSeries* s) const {
    const size_t p =
        static_cast<size_t>(reinterpret_cast<const char*>(s) - pairs_begin_) /
        sizeof(TimeSeriesGraph::PairEdge);
    FLOWMOTIF_CHECK_LT(p, num_pairs_)
        << "match series is not part of the recorded graph";
    return p;
  }

 private:
  const char* const pairs_begin_;
  const size_t num_pairs_;
};

/// Runs task(i) for every i in [0, count) on `pool` (on the calling
/// thread without one) and hands each task that returned true to
/// consume(i) on the calling thread, in index order, while later tasks
/// still run. Stops handing over at the first task that returned false
/// or threw, and returns whether every task was handed over. On a pool
/// it is one ParallelFor call: it waits for its own tasks only, and
/// returns only after each of them has ended.
template <typename Task, typename Consume>
bool RunInOrder(ThreadPool* pool, size_t count, const Task& task,
                const Consume& consume) {
  if (pool == nullptr) {
    for (size_t i = 0; i < count; ++i) {
      if (!task(i)) return false;
      consume(i);
    }
    return true;
  }
  // Written by task i's thread before it ends; read by the caller once
  // ParallelFor hands index i over.
  std::vector<uint8_t> succeeded(count, 0);
  size_t handed = 0;
  pool->ParallelFor(
      static_cast<int64_t>(count),
      [&](int64_t i) {
        succeeded[static_cast<size_t>(i)] = task(static_cast<size_t>(i));
      },
      [&](int64_t i) {
        if (handed == static_cast<size_t>(i) && succeeded[handed]) {
          consume(handed++);
        }
      });
  return handed == count;
}

/// Returns the memory the pool's workers freed to the system. glibc
/// keeps what a thread frees in that thread's arena, for that thread
/// alone, and trims an arena only past a threshold that grows to twice
/// the largest block it ever unmapped; so the fragments the workers
/// wrote would stay resident on every worker beside the main thread's
/// traces and replay buffers (without this, batch_study's peak RSS read
/// 53–54 MB against 46–47 MB for the serial recorder; DESIGN.md Sec. 7).
void ReleaseFreedWorkerMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// FlowPrefixArena
// ---------------------------------------------------------------------------

void FlowPrefixArena::EnsureLayout(const TimeSeriesGraph& graph) {
  if (topology_identity_ == graph.topology_identity()) return;
  FLOWMOTIF_CHECK(topology_identity_.storage == nullptr)
      << "FlowPrefixArena refilled from a different topology";
  const size_t total = BuildPrefixOffsets(graph, &offsets_);
  prefix_.resize(total);
  topology_identity_ = graph.topology_identity();
}

void FlowPrefixArena::FillFromGraph(const TimeSeriesGraph& graph) {
  EnsureLayout(graph);
  for (size_t p = 0; p < static_cast<size_t>(graph.num_pairs()); ++p) {
    const EdgeSeries& series = graph.pair(p).series;
    std::memcpy(prefix_.data() + offsets_[p], series.prefix_sums(),
                (series.size() + 1) * sizeof(double));
  }
}

void FlowPrefixArena::FillFromFlows(const TimeSeriesGraph& layout_graph,
                                    const std::vector<Flow>& flows) {
  EnsureLayout(layout_graph);
  size_t cursor = 0;
  for (size_t p = 0; p < static_cast<size_t>(layout_graph.num_pairs()); ++p) {
    const size_t n = layout_graph.pair(p).series.size();
    double* block = prefix_.data() + offsets_[p];
    // Same left-to-right accumulation as EdgeSeries::FillPrefix, so
    // the block equals the prefix array a view carrying these flows
    // would rebuild — bit for bit.
    block[0] = 0.0;
    for (size_t i = 0; i < n; ++i) {
      block[i + 1] = block[i] + flows[cursor + i];
    }
    cursor += n;
  }
  FLOWMOTIF_CHECK_EQ(cursor, flows.size());
}

// ---------------------------------------------------------------------------
// FlowPermutationStream
// ---------------------------------------------------------------------------

FlowPermutationStream::FlowPermutationStream(const TimeSeriesGraph& graph,
                                             uint64_t seed)
    : rng_(seed) {
  for (const TimeSeriesGraph::PairEdge& pe : graph.pairs()) {
    for (size_t i = 0; i < pe.series.size(); ++i) {
      original_.push_back(pe.series.flow(i));
    }
  }
  // Rng::NextBounded's rejection threshold (-bound % bound) depends
  // only on the bound, and a Fisher-Yates pass over n flows uses the
  // fixed bound sequence n, n-1, ..., 2. Paying those divisions once
  // here (indexed by bound) instead of once per element per draw makes
  // each ensemble draw a pure Next()/swap loop.
  thresholds_.resize(original_.size() + 1, 0);
  for (uint64_t b = 2; b < thresholds_.size(); ++b) {
    thresholds_[b] = -b % b;
  }
}

void FlowPermutationStream::NextPermutationInto(std::vector<Flow>* flows) {
  // WithPermutedFlows re-collects the real flows and shuffles them with
  // the caller's RNG on every draw; copying the cached collection and
  // consuming the identical stream below makes permutation i match
  // view i of the PR 5 path for any seed.
  *flows = original_;
  if (flows->empty()) return;
  // Inlined Rng::Shuffle: the same Fisher-Yates walk with the same
  // NextBounded rejection arithmetic (threshold precomputed above), so
  // the Next() sequence consumed — and the permutation produced — is
  // bit-identical to rng_.Shuffle(flows). The significance equivalence
  // tests lock this identity against the view-based reference path.
  Flow* v = flows->data();
  for (size_t i = flows->size() - 1; i > 0; --i) {
    const uint64_t bound = i + 1;
    const uint64_t threshold = thresholds_[bound];
    uint64_t r;
    do {
      r = rng_.Next();
    } while (r < threshold);
    const size_t j = static_cast<size_t>(r % bound);
    std::swap(v[i], v[j]);
  }
}

// ---------------------------------------------------------------------------
// EnumerationSkeleton
// ---------------------------------------------------------------------------

/// One recording pass over one range of the match list. The recursion
/// is the counting recursion of core/counter.cc with every flow
/// consultation replaced by trace emission: instead of accumulating
/// prefix_flow and testing phi, each viable slice becomes a DAG edge
/// carrying the prefix-index pair of its flow, and instead of returning
/// counts, each (level, first) returns its memoized state id.
/// Domination probes, galloping cursors, and window handling are
/// untouched — they are timestamp-only and must match the enumerator
/// exactly for replay to be byte-identical.
struct EnumerationSkeleton::Recorder {
  struct EdgeRec {
    uint32_t lo;
    uint32_t hi;
    uint32_t child;
  };

  /// One range's trace of one delta, numbered as if the range were the
  /// whole list: state 0 is the unit state and the range's states
  /// follow from 1 in post-order. Append rebases the ids.
  struct Fragment {
    std::vector<EdgeRec> edges;       // AoS; Append splits it
    std::vector<uint32_t> state_end;  // state s ends at state_end[s - 1]
    std::vector<uint32_t> roots;
  };

  /// What the ranges of one recording share. Ranges only read it, but
  /// for the per-delta budget state and the viability bytes of their
  /// own matches.
  struct Sweep {
    const TimeSeriesGraph* graph = nullptr;
    const Motif* motif = nullptr;
    const std::vector<Timestamp>* deltas = nullptr;
    const MatchList* matches = nullptr;
    std::vector<size_t> offsets;  // per pair, arena block start
    size_t max_edges = 0;
    QueryControl* control = nullptr;
    std::vector<EnumerationSkeleton>* skeletons = nullptr;
    // Per delta: edges of completed matches over all ranges, and
    // whether the delta is abandoned. A delta dies once either proves
    // its whole trace exceeds max_edges, so the other ranges stop
    // recording it and the fragments stay within about max_edges.
    std::unique_ptr<std::atomic<size_t>[]> committed;
    std::unique_ptr<std::atomic<bool>[]> dead;
  };

  Fragment* out = nullptr;  // the current delta's fragment
  const EdgeSeries* const* series = nullptr;  // per level, this match
  const size_t* lo = nullptr;     // per level, LowerBound(window.start)
  const size_t* limit = nullptr;  // per level, UpperBound(window.end)
  const size_t* base = nullptr;   // per level, arena block offset
  int num_edges = 0;
  size_t max_edges = 0;
  bool over_budget = false;
  // memo[level] maps a level's first admissible index to its state id
  // (kInvalidState = no viable completion), valid within one window —
  // exactly the counting recursion's memo keyed the same way. The keys
  // are bounded by the level's series size, so the memo is a flat
  // array with a per-entry generation stamp instead of a hash map:
  // invalidating it at a window boundary is one counter bump, not an
  // O(buckets) clear, and a recording touches millions of windows.
  std::vector<std::vector<uint32_t>> memo_state;
  std::vector<std::vector<uint64_t>> memo_gen;
  uint64_t window_gen = 0;  // 0 never matches: bumped before first use
  // Per-level edge scratch: the recursion visits levels strictly
  // deeper, so level k's buffer is never aliased by a recursive call.
  std::vector<std::vector<EdgeRec>> scratch;

  /// Sizes the memo arrays for the bound series (index domain is
  /// [0, size]); stale entries stay — the generation stamp guards them.
  void BeginMatch(const std::vector<const EdgeSeries*>& bound) {
    for (size_t k = 0; k < memo_state.size(); ++k) {
      const size_t need = bound[k]->size() + 1;
      if (memo_state[k].size() < need) {
        memo_state[k].resize(need);
        memo_gen[k].resize(need, 0);
      }
    }
  }

  void BeginWindow() { ++window_gen; }

  /// Appends one state with `edges` (checked against the budget) and
  /// returns its fragment-local id.
  uint32_t EmitState(const EdgeRec* edges, size_t count) {
    if (out->edges.size() + count > max_edges) {
      over_budget = true;
      return kInvalidState;
    }
    out->edges.insert(out->edges.end(), edges, edges + count);
    out->state_end.push_back(static_cast<uint32_t>(out->edges.size()));
    return static_cast<uint32_t>(out->state_end.size());
  }

  uint32_t RecordState(int level, size_t first) {
    if (over_budget) return kInvalidState;
    const EdgeSeries& s = *series[static_cast<size_t>(level)];
    const size_t level_limit = limit[static_cast<size_t>(level)];
    if (first >= level_limit) return kInvalidState;
    const size_t level_base = base[static_cast<size_t>(level)];

    // The recursion only recurses into deeper levels, so these slots
    // cannot be invalidated (or the arrays resized) before the writes
    // at the bottom of this call.
    uint32_t& memo_slot = memo_state[static_cast<size_t>(level)][first];
    uint64_t& gen_slot = memo_gen[static_cast<size_t>(level)][first];
    if (gen_slot == window_gen) return memo_slot;

    uint32_t state = kInvalidState;
    if (level == num_edges - 1) {
      // Last motif edge: the one maximal slice to the window end. Its
      // phi test happens at replay; the edge leads to the unit state.
      // Emitted directly — no scratch round-trip for a single edge.
      const EdgeRec edge{static_cast<uint32_t>(level_base + first),
                         static_cast<uint32_t>(level_base + level_limit), 0};
      state = EmitState(&edge, 1);
    } else {
      const EdgeSeries& next = *series[static_cast<size_t>(level) + 1];
      const size_t next_size = next.size();
      std::vector<EdgeRec>& edges = scratch[static_cast<size_t>(level)];
      edges.clear();
      // Same galloping domination cursor as the counting recursion;
      // see core/counter.cc for why it reproduces the enumerator's
      // HasElementInOpenClosed probe.
      size_t next_after = lo[static_cast<size_t>(level) + 1];
      for (size_t j = first; j < level_limit; ++j) {
        const Timestamp t_j = s.time(j);
        next_after = next.AdvanceUpperBound(next_after, t_j);
        if (j + 1 < level_limit) {
          const Timestamp t_next = s.time(j + 1);
          if (next_after >= next_size || next.time(next_after) > t_next) {
            continue;
          }
        }
        // No phi check here: the slice's flow is recorded as an index
        // pair and masked against phi at replay, which prunes exactly
        // the subtrees Algorithm 1 line 16 prunes (a failing prefix
        // zeroes every path through this edge).
        const uint32_t child = RecordState(level + 1, next_after);
        if (child == kInvalidState) {
          if (over_budget) return kInvalidState;
          continue;
        }
        edges.push_back(EdgeRec{static_cast<uint32_t>(level_base + first),
                                static_cast<uint32_t>(level_base + j + 1),
                                child});
      }
      if (!edges.empty()) state = EmitState(edges.data(), edges.size());
    }
    if (over_budget) return kInvalidState;
    gen_slot = window_gen;
    memo_slot = state;
    return state;
  }

  /// Records one match's window sweep into `out`; returns whether any
  /// window produced a root (the match's phi = 0 viability at this
  /// delta). The caller has bound `series`/`base` and sized the memo
  /// (BeginMatch); on over_budget the return value is partial and the
  /// fragment must be discarded.
  bool RecordMatchWindows(WindowCursorSet* cursors,
                          const std::vector<const EdgeSeries*>& bound,
                          const std::vector<Window>& windows) {
    if (windows.empty()) return false;
    cursors->Reset(bound);
    lo = cursors->lo_indices().data();
    limit = cursors->hi_indices().data();
    const int m = num_edges;
    bool any_root = false;
    for (const Window& window : windows) {
      cursors->AdvanceTo(window);
      // A level with no elements in the window kills every completion;
      // three comparisons here skip the whole recursion set-up. Skipped
      // windows record nothing and root nothing — output-identical.
      bool feasible = true;
      for (int k = 0; k < m; ++k) {
        if (lo[static_cast<size_t>(k)] >= limit[static_cast<size_t>(k)]) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      BeginWindow();
      const uint32_t root = RecordState(0, lo[0]);
      if (over_budget) return any_root;
      if (root != kInvalidState) {
        out->roots.push_back(root);
        any_root = true;
      }
    }
    return any_root;
  }

  static bool RecordRange(Sweep* sweep, IndexRange range,
                          std::vector<Fragment>* fragments);
  static void Append(const Fragment& fragment, EnumerationSkeleton* sk);
};

/// Records matches [range.begin, range.end) into one fragment per
/// delta on the calling thread. Returns false when a stop cut the range
/// short.
bool EnumerationSkeleton::Recorder::RecordRange(
    Sweep* sweep, IndexRange range, std::vector<Fragment>* fragments) {
  const TimeSeriesGraph& graph = *sweep->graph;
  const Motif& motif = *sweep->motif;
  const std::vector<Timestamp>& deltas = *sweep->deltas;
  const MatchList& matches = *sweep->matches;
  QueryControl* const control = sweep->control;
  const SeriesPairIndexer series_pair_index(graph);
  const size_t n = deltas.size();
  const int m = motif.num_edges();

  std::vector<const EdgeSeries*> series(static_cast<size_t>(m));
  std::vector<size_t> base(static_cast<size_t>(m));
  WindowCursorSet cursors;
  Recorder rec;
  rec.series = series.data();
  rec.base = base.data();
  rec.num_edges = m;
  rec.max_edges = sweep->max_edges;
  rec.memo_state.resize(static_cast<size_t>(m));
  rec.memo_gen.resize(static_cast<size_t>(m));
  rec.scratch.resize(static_cast<size_t>(m));

  // One window reader per delta, each charging its own lists like every
  // list a match reads.
  std::vector<WindowReader> readers;
  readers.reserve(n);
  for (const Timestamp delta : deltas) readers.emplace_back(delta, control);
  std::vector<const std::vector<Window>*> windows(n);

  for (int64_t match_index = range.begin; match_index < range.end;
       ++match_index) {
    if (control != nullptr && control->CheckAt(failpoint::kSweepRecord)) {
      return false;
    }
    // Only the boundary series gate a match (the window lists depend on
    // nothing else), so interior series resolve lazily. No windows at
    // the largest delta (index 0) means none at any delta (a window
    // needs an R(em) element within [anchor, anchor + delta], and that
    // interval only shrinks) — most structural matches die right here,
    // before any other list or per-level set-up.
    const MatchRef binding = matches[match_index];
    series.front() = ResolveEdgeSeries(graph, motif, binding, 0);
    series.back() = ResolveEdgeSeries(graph, motif, binding, m - 1);
    windows[0] = &readers[0].Get(*series.front(), *series.back());
    if (windows[0]->empty()) continue;
    for (size_t d = 1; d < n; ++d) {
      windows[d] = &readers[d].Get(*series.front(), *series.back());
    }
    for (int i = 1; i < m - 1; ++i) {
      series[static_cast<size_t>(i)] =
          ResolveEdgeSeries(graph, motif, binding, i);
    }
    for (int k = 0; k < m; ++k) {
      base[static_cast<size_t>(k)] =
          sweep->offsets[series_pair_index(series[static_cast<size_t>(k)])];
    }
    rec.BeginMatch(series);

    // Largest delta first; `alive` carries the cascade — no roots at a
    // (successfully recorded) delta proves there is no phi = 0
    // completion, and shrinking delta only removes completions, so
    // every remaining delta can skip this match without changing any
    // count. A skipped match would emit nothing, which is why the
    // moment another range abandons a delta changes no other delta's
    // trace.
    bool alive = true;
    for (size_t d = 0; d < n && alive; ++d) {
      if (sweep->dead[d]) continue;
      Fragment& fragment = (*fragments)[d];
      const size_t before = fragment.edges.size();
      rec.out = &fragment;
      rec.over_budget = false;
      const bool any_root =
          rec.RecordMatchWindows(&cursors, series, *windows[d]);
      const size_t emitted = fragment.edges.size() - before;
      // Either test proves the delta's whole trace exceeds the budget:
      // this fragment alone, or the completed matches of every range.
      if (rec.over_budget ||
          (emitted > 0 &&
           sweep->committed[d].fetch_add(emitted) + emitted >
               sweep->max_edges)) {
        sweep->dead[d] = true;  // abandoned; excluded from the cascade too
        continue;
      }
      if (any_root) {
        (*sweep->skeletons)[d].match_viable_[static_cast<size_t>(
            match_index)] = 1;
      }
      alive = any_root;
    }
  }
  return true;
}

/// Appends one range's fragment to its delta's skeleton, straight into
/// the SoA arrays. The fragment's states follow the states already
/// there, so its non-unit state ids shift by their count and its CSR
/// offsets by their edges; lo/hi are absolute arena indices and stay.
void EnumerationSkeleton::Recorder::Append(const Fragment& fragment,
                                           EnumerationSkeleton* sk) {
  const size_t edges_before = sk->edge_lo_.size();
  const auto states_before = static_cast<uint32_t>(sk->num_states() - 1);
  const auto rebase = [states_before](uint32_t state) {
    return state == 0 ? 0 : state + states_before;  // unit state stays
  };
  const size_t count = fragment.edges.size();
  sk->edge_lo_.resize(edges_before + count);
  sk->edge_hi_.resize(edges_before + count);
  sk->edge_child_.resize(edges_before + count);
  for (size_t e = 0; e < count; ++e) {
    const EdgeRec& edge = fragment.edges[e];
    sk->edge_lo_[edges_before + e] = edge.lo;
    sk->edge_hi_[edges_before + e] = edge.hi;
    sk->edge_child_[edges_before + e] = rebase(edge.child);
  }
  for (const uint32_t end : fragment.state_end) {
    sk->state_begin_.push_back(end + static_cast<uint32_t>(edges_before));
  }
  for (const uint32_t root : fragment.roots) {
    sk->roots_.push_back(rebase(root));
  }
}

void EnumerationSkeleton::Clear() {
  edge_lo_.clear();
  edge_hi_.clear();
  edge_child_.clear();
  state_begin_.assign(2, 0);
  roots_.clear();
  match_viable_.clear();
  topology_identity_ = StorageIdentity{};
  recorded_ = false;
}

bool EnumerationSkeleton::Record(const TimeSeriesGraph& graph,
                                 const Motif& motif, Timestamp delta,
                                 const MatchList& matches,
                                 QueryControl* control,
                                 const Options& options, ThreadPool* pool) {
  std::vector<EnumerationSkeleton> one;
  RecordSweepDescending(graph, motif, {delta}, matches, options, &one,
                        control, pool);
  *this = std::move(one.front());
  return recorded_;
}

bool EnumerationSkeleton::Record(const TimeSeriesGraph& graph,
                                 const Motif& motif, Timestamp delta,
                                 const std::vector<MatchBinding>& matches,
                                 QueryControl* control,
                                 const Options& options) {
  return Record(graph, motif, delta,
                MatchList::FromBindings(matches, motif.num_nodes()), control,
                options, /*pool=*/nullptr);
}

void EnumerationSkeleton::RecordSweepDescending(
    const TimeSeriesGraph& graph, const Motif& motif,
    const std::vector<Timestamp>& deltas,
    const MatchList& matches, const Options& options,
    std::vector<EnumerationSkeleton>* skeletons, QueryControl* control,
    ThreadPool* pool) {
  const size_t n = deltas.size();
  skeletons->clear();
  skeletons->resize(n);
  if (n == 0) return;
  for (size_t d = 0; d + 1 < n; ++d) {
    FLOWMOTIF_CHECK_GE(deltas[d], deltas[d + 1])
        << "sweep deltas must be non-increasing";
  }
  FLOWMOTIF_CHECK_GE(deltas.back(), 0);
  for (EnumerationSkeleton& sk : *skeletons) {
    sk.Clear();
    sk.match_viable_.assign(static_cast<size_t>(matches.size()), 0);
  }

  Recorder::Sweep sweep;
  sweep.graph = &graph;
  sweep.motif = &motif;
  sweep.deltas = &deltas;
  sweep.matches = &matches;
  sweep.max_edges = options.max_edges;
  sweep.control = control;
  sweep.skeletons = skeletons;
  sweep.committed = std::make_unique<std::atomic<size_t>[]>(n);
  sweep.dead = std::make_unique<std::atomic<bool>[]>(n);
  const size_t total_prefix = BuildPrefixOffsets(graph, &sweep.offsets);
  if (total_prefix > std::numeric_limits<uint32_t>::max()) return;

  // One range at one thread or without a pool: then the recording is
  // the serial loop, with no second code path.
  const std::vector<IndexRange> ranges = PartitionIndexSpace(
      matches.size(), pool != nullptr ? pool->num_threads() : 1);
  // The calling thread appends each range's fragments as soon as the
  // ranges before it ended, so only the ranges ahead of the oldest
  // running one hold fragments at a time.
  std::vector<std::vector<Recorder::Fragment>> fragments(
      ranges.size(), std::vector<Recorder::Fragment>(n));
  const bool complete = RunInOrder(
      pool, ranges.size(),
      [&](size_t r) {
        return Recorder::RecordRange(&sweep, ranges[r], &fragments[r]);
      },
      [&](size_t r) {
        for (size_t d = 0; d < n; ++d) {
          // An abandoned delta's trace is cleared once every range ended.
          if (!sweep.dead[d]) {
            Recorder::Append(fragments[r][d], &(*skeletons)[d]);
          }
          fragments[r][d] = Recorder::Fragment();
        }
      });
  if (ranges.size() > 1) ReleaseFreedWorkerMemory();

  // A trace over part of the list would replay wrong counts: abandon
  // every delta so callers take their per-cell fallback (which observes
  // the same stop and terminates promptly). The control is read again
  // because a range may end before another range's window charge
  // crosses a budget, where the one-range pass would see that stop at
  // its next match.
  if (!complete || (control != nullptr && control->ShouldStop())) {
    for (EnumerationSkeleton& sk : *skeletons) sk.Clear();
    return;
  }
  for (size_t d = 0; d < n; ++d) {
    EnumerationSkeleton& sk = (*skeletons)[d];
    if (sweep.dead[d]) {
      sk.Clear();
      continue;
    }
    sk.topology_identity_ = graph.topology_identity();
    sk.recorded_ = true;
  }
}

// ---------------------------------------------------------------------------
// SkeletonReplayer
// ---------------------------------------------------------------------------

SkeletonReplayer::SkeletonReplayer(const EnumerationSkeleton* skeleton)
    : skeleton_(skeleton) {
  FLOWMOTIF_CHECK(skeleton != nullptr && skeleton->recorded());
  values_.resize(skeleton->num_states());
}

int64_t SkeletonReplayer::Count(const FlowPrefixArena& arena, Flow phi) {
  FLOWMOTIF_CHECK(arena.topology_identity() == skeleton_->topology_identity())
      << "replay arena does not share the recorded topology";
  return skeleton_kernel::AccumulateStatesFused(
      arena.data(), skeleton_->edge_lo(), skeleton_->edge_hi(), phi,
      skeleton_->edge_child(), skeleton_->state_begin(),
      skeleton_->num_states(), skeleton_->roots(), skeleton_->num_roots(),
      values_.data());
}

void SkeletonReplayer::EvaluateFlows(const FlowPrefixArena& arena) {
  FLOWMOTIF_CHECK(arena.topology_identity() == skeleton_->topology_identity())
      << "replay arena does not share the recorded topology";
  flows_.resize(skeleton_->num_edges());
  skeleton_kernel::EvaluateEdgeFlows(arena.data(), skeleton_->edge_lo(),
                                     skeleton_->edge_hi(),
                                     skeleton_->num_edges(), flows_.data());
}

int64_t SkeletonReplayer::CountWithFlows(Flow phi) {
  FLOWMOTIF_CHECK_EQ(flows_.size(), skeleton_->num_edges())
      << "CountWithFlows requires a prior EvaluateFlows";
  return skeleton_kernel::AccumulateStates(
      flows_.data(), phi, skeleton_->edge_child(), skeleton_->state_begin(),
      skeleton_->num_states(), skeleton_->roots(), skeleton_->num_roots(),
      values_.data());
}

}  // namespace flowmotif
