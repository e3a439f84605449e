#ifndef FLOWMOTIF_CORE_COUNTER_H_
#define FLOWMOTIF_CORE_COUNTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/match_list.h"
#include "core/motif.h"
#include "core/structural_match.h"
#include "core/window_cursor.h"
#include "graph/time_series_graph.h"
#include "graph/types.h"

namespace flowmotif {

/// Counts flow motif instances without constructing them — the paper's
/// future-work direction (Sec. 7, "counting instances of motifs without
/// constructing them", in the spirit of Paranjape et al.).
///
/// The enumerator's search tree expands every combination of edge-set
/// prefixes even when only the total count is wanted. This module
/// instead counts per window with a memoized recursion: the number of
/// valid ways to instantiate the motif suffix e_i..e_m only depends on
/// (i, first usable element index of e_i), because
///  * phi-feasibility of a prefix of e_i is local to that edge,
///  * the prefix-domination rule depends only on e_i and e_{i+1}, and
///  * the window end is fixed.
/// Distinct enumeration branches that reach the same (i, index) state —
/// which happens whenever different e_{i-1} prefixes end before the same
/// e_i element — therefore share one memo entry, turning the
/// multiplicative tree into a linear pass per window.
///
/// The per-window machinery rides the shared core/window_cursor layer:
/// window lists come through a SharedWindowCache::Reader (of the cache
/// injected by the engine, or of a privately owned one when the motif's
/// (first, last) series pairs can repeat), the per-level window bounds
/// slide on a WindowCursorSet instead of one UpperBound per recursion
/// call, and the recursion's per-element next-edge searches are
/// monotone galloping advances.
class InstanceCounter {
 public:
  struct Result {
    int64_t num_instances = 0;
    int64_t num_structural_matches = 0;
    int64_t num_windows = 0;
    int64_t memo_hits = 0;  // branches answered from the memo
  };

  /// `window_cache` (optional) is the shared window cache; it must
  /// outlive the counter and be bound to the same delta. When null, the
  /// counter owns one iff the motif has an interior node — the only
  /// shape where a (first, last) pair can repeat.
  InstanceCounter(const TimeSeriesGraph& graph, const Motif& motif,
                  Timestamp delta, Flow phi,
                  SharedWindowCache* window_cache = nullptr);
  // The counter keeps a reference to the graph: temporaries would dangle.
  InstanceCounter(TimeSeriesGraph&&, const Motif&, Timestamp, Flow,
                  SharedWindowCache* = nullptr) = delete;

  /// Counts over the whole graph (phase P1 + counting per match).
  Result Run() const;

  /// Counts over precomputed structural matches.
  Result RunOnMatches(const std::vector<MatchBinding>& matches) const;

  /// Counts within a single structural match. The match's window list
  /// is read through `windows` — a reader a caller looping over matches
  /// keeps across them (NewReader), which also carries the query
  /// control charged for the lists it materializes — or, when null,
  /// through an uncharged reader made for this one match.
  int64_t CountMatch(MatchRef binding, Result* result,
                     SharedWindowCache::Reader* windows = nullptr) const;

  /// A reader of this counter's window cache, billing `charge` (may be
  /// null) at site "cache.windows". One per thread.
  SharedWindowCache::Reader NewReader(QueryControl* charge = nullptr) const;

 private:
  const TimeSeriesGraph& graph_;
  const Motif motif_;
  Timestamp delta_;
  Flow phi_;
  // Privately owned cache when none is injected and the motif has an
  // interior node (the only shape where a pair repeats).
  std::unique_ptr<SharedWindowCache> owned_cache_;
  SharedWindowCache* cache_;  // null = compute windows per match
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_COUNTER_H_
