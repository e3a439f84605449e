#include "core/skeleton.h"

#include <cstring>
#include <limits>
#include <utility>

#include "core/skeleton_kernel.h"
#include "core/sliding_window.h"
#include "core/window_cursor.h"
#include "util/failpoint.h"
#include "util/logging.h"

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

/// One recording pass. The recursion is the counting recursion of
/// core/counter.cc with every flow consultation replaced by trace
/// emission: instead of accumulating prefix_flow and testing phi, each
/// viable slice becomes a DAG edge carrying the prefix-index pair of
/// its flow, and instead of returning counts, each (level, first)
/// returns its memoized state id. Domination probes, galloping
/// cursors, and window handling are untouched — they are timestamp-only
/// and must match the enumerator exactly for replay to be
/// byte-identical.
struct EnumerationSkeleton::Recorder {
  struct EdgeRec {
    uint32_t lo;
    uint32_t hi;
    uint32_t child;
  };

  EnumerationSkeleton* out;          // state_begin_ / roots_ sink
  std::vector<EdgeRec>* out_edges;   // AoS edge sink; Finalize splits it
  const EdgeSeries* const* series;   // per level, this match
  const size_t* lo;      // per level, LowerBound(window.start)
  const size_t* limit;   // per level, UpperBound(window.end)
  const size_t* base;    // per level, arena block offset
  int num_edges;
  size_t max_edges;
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

  uint32_t EmitState(int level) {
    std::vector<EdgeRec>& edges = scratch[static_cast<size_t>(level)];
    if (out_edges->size() + edges.size() > max_edges) {
      over_budget = true;
      return kInvalidState;
    }
    out_edges->insert(out_edges->end(), edges.begin(), edges.end());
    out->state_begin_.push_back(static_cast<uint32_t>(out_edges->size()));
    return static_cast<uint32_t>(out->state_begin_.size() - 2);
  }

  /// Splits the AoS edge buffer into the skeleton's SoA arrays — one
  /// linear pass at the end of a recording, so the hot emission path
  /// pays a single capacity check per state instead of three per edge.
  static void Finalize(EnumerationSkeleton* sk,
                       const std::vector<EdgeRec>& edges) {
    sk->edge_lo_.resize(edges.size());
    sk->edge_hi_.resize(edges.size());
    sk->edge_child_.resize(edges.size());
    for (size_t i = 0; i < edges.size(); ++i) {
      sk->edge_lo_[i] = edges[i].lo;
      sk->edge_hi_[i] = edges[i].hi;
      sk->edge_child_[i] = edges[i].child;
    }
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
      if (out_edges->size() + 1 > max_edges) {
        over_budget = true;
        return kInvalidState;
      }
      out_edges->push_back(EdgeRec{static_cast<uint32_t>(level_base + first),
                                   static_cast<uint32_t>(level_base + level_limit),
                                   0});
      out->state_begin_.push_back(static_cast<uint32_t>(out_edges->size()));
      state = static_cast<uint32_t>(out->state_begin_.size() - 2);
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
      state = edges.empty() ? kInvalidState : EmitState(level);
    }
    if (over_budget) return kInvalidState;
    gen_slot = window_gen;
    memo_slot = state;
    return state;
  }

  /// Records one match's window sweep into `out`/`out_edges`; returns
  /// whether any window produced a root (the match's phi = 0 viability
  /// at this delta). The caller has bound `series`/`base` and sized the
  /// memo (BeginMatch); on over_budget the return value is partial and
  /// the sink must be discarded.
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
        out->roots_.push_back(root);
        any_root = true;
      }
    }
    return any_root;
  }
};

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
                                 const Options& options) {
  std::vector<EnumerationSkeleton> one;
  RecordSweepDescending(graph, motif, {delta}, matches, options, &one,
                        control);
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
                options);
}

void EnumerationSkeleton::RecordSweepDescending(
    const TimeSeriesGraph& graph, const Motif& motif,
    const std::vector<Timestamp>& deltas,
    const MatchList& matches, const Options& options,
    std::vector<EnumerationSkeleton>* skeletons, QueryControl* control) {
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

  std::vector<size_t> offsets;
  const size_t total_prefix = BuildPrefixOffsets(graph, &offsets);
  if (total_prefix > std::numeric_limits<uint32_t>::max()) return;
  const SeriesPairIndexer series_pair_index(graph);

  const int m = motif.num_edges();
  std::vector<const EdgeSeries*> series(static_cast<size_t>(m));
  std::vector<size_t> base(static_cast<size_t>(m));
  WindowCursorSet cursors;

  std::vector<std::vector<Recorder::EdgeRec>> edges(n);
  Recorder rec;
  rec.series = series.data();
  rec.base = base.data();
  rec.num_edges = m;
  rec.max_edges = options.max_edges;
  rec.memo_state.resize(static_cast<size_t>(m));
  rec.memo_gen.resize(static_cast<size_t>(m));
  rec.scratch.resize(static_cast<size_t>(m));

  // Per-delta abandonment (budget overrun): the skeleton stops
  // receiving matches and is cleared at the end; the other deltas
  // proceed unaffected.
  std::vector<bool> dead(n, false);

  // Per-match window lists, one per delta, out of a single scan of the
  // match's boundary series. A one-entry MRU keyed on the (first, last)
  // identity pair: the lists depend only on those identities, and
  // consecutive matches of an interior-node motif may share them.
  std::vector<std::vector<Window>> windows;
  StorageIdentity mru_first;
  StorageIdentity mru_last;

  // Only the boundary series gate a match (the window lists depend on
  // nothing else), so interior series resolve lazily — most structural
  // matches die at the empty-window check and never pay those binary
  // searches.
  const auto [first_src, first_dst] = motif.edge(0);
  const auto [last_src, last_dst] = motif.edge(m - 1);

  bool stopped = false;
  for (size_t match_index = 0;
       match_index < static_cast<size_t>(matches.size()); ++match_index) {
    if (control != nullptr && control->CheckAt(failpoint::kSweepRecord)) {
      stopped = true;
      break;
    }
    const MatchRef binding = matches[static_cast<int64_t>(match_index)];
    const EdgeSeries* first_series =
        graph.FindSeries(binding[static_cast<size_t>(first_src)],
                         binding[static_cast<size_t>(first_dst)]);
    const EdgeSeries* last_series =
        graph.FindSeries(binding[static_cast<size_t>(last_src)],
                         binding[static_cast<size_t>(last_dst)]);
    FLOWMOTIF_CHECK(first_series != nullptr && last_series != nullptr)
        << "binding is not a structural match of " << motif.name();
    if (first_series->timestamp_identity() != mru_first ||
        last_series->timestamp_identity() != mru_last) {
      ComputeProcessedWindowsMulti(*first_series, *last_series, deltas,
                                   &windows);
      size_t computed = 0;
      for (const std::vector<Window>& per_delta : windows) {
        computed += per_delta.size();
      }
      ChargeComputedWindows(control, computed, 0);
      mru_first = first_series->timestamp_identity();
      mru_last = last_series->timestamp_identity();
    }
    // No windows at the largest delta means none at any delta (a window
    // needs an R(em) element within [anchor, anchor + delta], and that
    // interval only shrinks) — most structural matches die right here,
    // before any per-level set-up.
    if (windows.front().empty()) continue;
    series.front() = first_series;
    series.back() = last_series;
    for (int i = 1; i < m - 1; ++i) {
      const auto [src, dst] = motif.edge(i);
      const EdgeSeries* s =
          graph.FindSeries(binding[static_cast<size_t>(src)],
                           binding[static_cast<size_t>(dst)]);
      FLOWMOTIF_CHECK(s != nullptr)
          << "binding is not a structural match of " << motif.name();
      series[static_cast<size_t>(i)] = s;
    }
    for (int k = 0; k < m; ++k) {
      base[static_cast<size_t>(k)] =
          offsets[series_pair_index(series[static_cast<size_t>(k)])];
    }
    rec.BeginMatch(series);

    // Largest delta first; `alive` carries the cascade — no roots at a
    // (successfully recorded) delta proves there is no phi = 0
    // completion, and shrinking delta only removes completions, so
    // every remaining delta can skip this match without changing any
    // count.
    bool alive = true;
    for (size_t d = 0; d < n && alive; ++d) {
      if (dead[d]) continue;
      EnumerationSkeleton& sk = (*skeletons)[d];
      rec.out = &sk;
      rec.out_edges = &edges[d];
      rec.over_budget = false;
      const bool any_root =
          rec.RecordMatchWindows(&cursors, series, windows[d]);
      if (rec.over_budget) {
        dead[d] = true;  // abandoned; excluded from the cascade too
        continue;
      }
      if (any_root) sk.match_viable_[match_index] = 1;
      alive = any_root;
    }
  }

  if (stopped) {
    // A trace over a match prefix would replay wrong counts: abandon
    // every delta so callers take their per-cell fallback (which
    // observes the same stop and terminates promptly).
    for (EnumerationSkeleton& sk : *skeletons) sk.Clear();
    return;
  }

  for (size_t d = 0; d < n; ++d) {
    EnumerationSkeleton& sk = (*skeletons)[d];
    if (dead[d]) {
      sk.Clear();
      continue;
    }
    Recorder::Finalize(&sk, edges[d]);
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
