#ifndef FLOWMOTIF_CORE_JOIN_BASELINE_H_
#define FLOWMOTIF_CORE_JOIN_BASELINE_H_

#include <cstdint>
#include <functional>

#include "core/enumerator.h"
#include "core/instance.h"
#include "core/motif.h"
#include "core/window_cursor.h"
#include "graph/time_series_graph.h"

namespace flowmotif {

/// The paper's baseline competitor (Sec. 6.2.1): instead of the two-phase
/// structure-first search, motif instances are assembled bottom-up by
/// hierarchical joins.
///
/// Step 1 materializes, for every edge (u, v) of GT, all "quintuples"
/// (u, v, ts, te, f): contiguous interaction runs of duration <= delta
/// with aggregated flow f (those failing phi are dropped — a run that
/// fails phi cannot instantiate a motif edge). The per-anchor duration
/// limit slides on one monotone galloping cursor per series (anchors
/// ascend), and the resulting table is grouped by run start, so step
/// ell's join probes binary-search the one group matching the canonical
/// start instead of scanning the whole table. Step ell joins the
/// sub-motif instances of the first ell edges with the quintuple table
/// of edge ell+1 on the shared vertex, checking the time-order,
/// duration, phi and vertex-binding predicates. Cycle-closing and
/// repeated motif nodes are enforced through the bindings.
///
/// Canonicality predicates (runs anchored right after the previous edge's
/// split, last edge extended to the window end, window anchor novelty)
/// make the final instance set *identical* to FlowMotifEnumerator's
/// paper-faithful output — which the property tests verify. The
/// anchor-novelty check groups the surviving instances by their (first,
/// last) series pair and reads one window list per pair, with the same
/// WindowReader the two-phase paths use, so Fig. 8 comparisons measure
/// the join strategy, not a different window source. The cost profile
/// is the paper's: a large number of intermediate sub-motif instances is
/// produced and most never contribute to a final instance.
class JoinMotifEnumerator {
 public:
  /// Visitor over materialized instances; return false to stop.
  using JoinVisitor = std::function<bool(const MotifInstance&)>;

  struct Result {
    int64_t num_instances = 0;
    int64_t num_quintuples = 0;    // step-1 table size
    int64_t num_partials = 0;      // intermediate sub-motif instances
    double seconds = 0.0;
  };

  JoinMotifEnumerator(const TimeSeriesGraph& graph, const Motif& motif,
                      Timestamp delta, Flow phi);
  // The enumerator keeps a reference to the graph: temporaries would
  // dangle.
  JoinMotifEnumerator(TimeSeriesGraph&&, const Motif&, Timestamp,
                      Flow) = delete;

  /// Runs the join pipeline. `visitor` may be null to count only.
  Result Run(const JoinVisitor& visitor = nullptr) const;

 private:
  const TimeSeriesGraph& graph_;
  const Motif motif_;
  Timestamp delta_;
  Flow phi_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_JOIN_BASELINE_H_
