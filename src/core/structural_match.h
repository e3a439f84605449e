#ifndef FLOWMOTIF_CORE_STRUCTURAL_MATCH_H_
#define FLOWMOTIF_CORE_STRUCTURAL_MATCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/match_list.h"
#include "core/motif.h"
#include "graph/time_series_graph.h"
#include "util/cancellation.h"
#include "util/partition.h"
#include "util/thread_pool.h"

namespace flowmotif {

/// Phase P1 of the paper's two-phase algorithm (Sec. 4): finds every
/// structural match of the motif graph GM in the time-series graph GT,
/// disregarding edge labels' time series and the delta / phi constraints.
///
/// For spanning-path motifs the implementation follows the paper: a
/// modified depth-first search that walks the motif's spanning path.
/// Every graph vertex is tried as the image of the path's origin; at
/// step i the (i+1)-th path node is either already bound (the edge must
/// exist between the bound vertices — this realizes the "last vertex
/// equals first vertex" cycle check and all other repeats) or is bound
/// to each out-neighbor that keeps the binding injective.
///
/// General motifs (forks/joins, the Sec. 7 extension) are matched by
/// backtracking over the edges in label order: a new target vertex is
/// drawn from the out-neighbors of the bound source, a new source vertex
/// from the in-neighbors of the bound target, and an edge with both
/// endpoints fresh scans the pair table.
///
/// Enumeration order is deterministic: origins in vertex order, neighbors
/// in CSR (destination / source) order.
///
/// The search decomposes into independent *work units* — one candidate
/// origin vertex for path motifs, one pair edge as the image of the
/// first labeled edge for general motifs — which is what the flat scan
/// below (ScanMatchUnits, FindMatchesControlled) partitions across
/// workers: per-unit match lists concatenated in unit order reproduce
/// the serial order exactly.
class StructuralMatcher {
 public:
  /// Visitor invoked per match; return false to stop the search early.
  using MatchVisitor = std::function<bool(const MatchBinding&)>;

  StructuralMatcher(const TimeSeriesGraph& graph, const Motif& motif);
  // The matcher keeps a reference to the graph: temporaries would dangle.
  StructuralMatcher(TimeSeriesGraph&&, const Motif&) = delete;

  /// Streams every structural match to `visitor`.
  void FindAll(const MatchVisitor& visitor) const;

  /// Number of independent work units the search decomposes into: one
  /// per graph vertex (path motifs, candidate origins) or one per pair
  /// edge (general motifs, images of the first labeled edge). Units may
  /// be empty — e.g. an origin with no out-edge.
  int64_t NumWorkUnits() const;

  /// Streams every match whose work unit lies in [begin, end), in the
  /// serial FindAll order. FindAll is exactly
  /// FindInUnits(0, NumWorkUnits(), visitor). Returns false iff the
  /// visitor stopped the search early.
  bool FindInUnits(int64_t begin, int64_t end,
                   const MatchVisitor& visitor) const;

  /// Convenience: materializes all matches.
  std::vector<MatchBinding> FindAllMatches() const;

  /// Counts matches without materializing them.
  int64_t CountMatches() const;

  /// Verifies that `binding` is a structural match (used by tests and to
  /// validate externally supplied bindings): injective, within range, and
  /// every motif edge maps to a connected pair.
  bool IsMatch(const MatchBinding& binding) const;

  const Motif& motif() const { return motif_; }

 private:
  /// Runs one work unit with caller-provided scratch (reused across
  /// units so a range of units costs one allocation, not one per unit).
  void FindInUnitImpl(int64_t unit, MatchBinding* binding,
                      std::vector<bool>* vertex_used,
                      const MatchVisitor& visitor, bool* stop) const;
  void Dfs(size_t step, MatchBinding* binding,
           std::vector<bool>* vertex_used, const MatchVisitor& visitor,
           bool* stop) const;
  void GeneralDfs(int edge_idx, MatchBinding* binding,
                  std::vector<bool>* vertex_used, const MatchVisitor& visitor,
                  bool* stop) const;

  const TimeSeriesGraph& graph_;
  const Motif motif_;  // by value: motifs are tiny and callers often pass
                       // temporaries
};

/// The one flat P1 scan, which every list-building path runs: the
/// engine's streamed P1 shards, its scans before P2 and RunSweep's
/// shared list, and the significance analyzer. Appends the vertices of
/// each match of work units `units` to `out` in serial order, with no
/// allocation per match. Under a control each unit is preceded by a
/// "p1.unit" check, and `cap` >= 0 ends the scan when a match arrives
/// while `out` already holds `cap`. Returns false when the scan ended
/// early either way; `out` then holds a canonical prefix of the units.
bool ScanMatchUnits(const StructuralMatcher& matcher, IndexRange units,
                    QueryControl* control, int64_t cap, MatchList* out);

/// Phase P1 into one list under an optional control (null = no
/// checks). With WorkBudget::max_matches set the scan runs serially and
/// truncates at exactly that many matches (a soft kBudgetExceeded at
/// "p1.unit": callers still evaluate the prefix). Otherwise, on a pool
/// of more than one thread, contiguous work-unit ranges — several per
/// worker, so dynamic scheduling absorbs the match-density skew across
/// units — are scanned as pool tasks and concatenated in range order,
/// and a stop keeps the canonical prefix: every leading range plus the
/// first stopped range's leading units. `pool` may be null (one serial
/// scan). Byte-identical to FindAllMatches() when nothing stops it, for
/// every thread count.
MatchList FindMatchesControlled(const StructuralMatcher& matcher,
                                ThreadPool* pool, QueryControl* control);

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_STRUCTURAL_MATCH_H_
