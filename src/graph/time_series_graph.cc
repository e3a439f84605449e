#include "graph/time_series_graph.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "util/logging.h"

namespace flowmotif {

// A default-constructed graph owns a small empty index so the accessors
// never have to null-check index_.
TimeSeriesGraph::TimeSeriesGraph()
    : index_(std::make_shared<const Index>()) {}

TimeSeriesGraph TimeSeriesGraph::Build(const InteractionGraph& multigraph) {
  TimeSeriesGraph graph;
  const int64_t n = multigraph.num_vertices();

  // Sort raw edges by (src, dst, t, f) and slice into per-pair series.
  std::vector<InteractionGraph::Edge> edges = multigraph.edges();
  std::sort(edges.begin(), edges.end(),
            [](const InteractionGraph::Edge& a,
               const InteractionGraph::Edge& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              if (a.t != b.t) return a.t < b.t;
              return a.f < b.f;
            });

  graph.pairs_.clear();
  size_t i = 0;
  while (i < edges.size()) {
    size_t j = i;
    std::vector<Interaction> series;
    while (j < edges.size() && edges[j].src == edges[i].src &&
           edges[j].dst == edges[i].dst) {
      series.push_back(Interaction{edges[j].t, edges[j].f});
      ++j;
    }
    graph.pairs_.push_back(
        PairEdge{edges[i].src, edges[i].dst, EdgeSeries(std::move(series))});
    i = j;
  }

  graph.index_ =
      std::make_shared<const Index>(BuildIndex(graph.pairs_, n));
  return graph;
}

TimeSeriesGraph::Index TimeSeriesGraph::BuildIndex(
    const std::vector<PairEdge>& pairs, int64_t n) {
  Index index;

  // CSR offsets over the sorted pair list.
  index.out_begin.assign(static_cast<size_t>(n) + 1, 0);
  for (const PairEdge& pe : pairs) {
    ++index.out_begin[static_cast<size_t>(pe.src) + 1];
  }
  for (size_t v = 1; v < index.out_begin.size(); ++v) {
    index.out_begin[v] += index.out_begin[v - 1];
  }

  // Reverse index: pair indices grouped by destination (counting sort;
  // the (dst, src) order follows from the stable pass over pairs sorted
  // by (src, dst)).
  index.in_begin.assign(static_cast<size_t>(n) + 1, 0);
  for (const PairEdge& pe : pairs) {
    ++index.in_begin[static_cast<size_t>(pe.dst) + 1];
  }
  for (size_t v = 1; v < index.in_begin.size(); ++v) {
    index.in_begin[v] += index.in_begin[v - 1];
  }
  index.in_index.assign(pairs.size(), 0);
  std::vector<size_t> cursor(index.in_begin.begin(),
                             index.in_begin.end() - 1);
  for (size_t p = 0; p < pairs.size(); ++p) {
    index.in_index[cursor[static_cast<size_t>(pairs[p].dst)]++] = p;
  }
  return index;
}

TimeSeriesGraph TimeSeriesGraph::ExtendWith(
    const TimeSeriesGraph& base,
    std::vector<InteractionGraph::Edge> new_edges, int64_t num_vertices,
    EpochId epoch) {
  FLOWMOTIF_CHECK_GE(num_vertices, base.num_vertices());
  std::sort(new_edges.begin(), new_edges.end(),
            [](const InteractionGraph::Edge& a,
               const InteractionGraph::Edge& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              if (a.t != b.t) return a.t < b.t;
              return a.f < b.f;
            });

  // Merge base.pairs_ with the (src, dst)-grouped new edges, keeping the
  // sorted pair order Build produces. Untouched pairs are copied as-is —
  // their series share the base's timestamp storage and keep its
  // identity — while dirty and brand-new pairs get fresh storage stamped
  // with the sealing epoch.
  TimeSeriesGraph out;
  out.pairs_.reserve(base.pairs_.size());
  bool topology_changed = num_vertices != base.num_vertices();
  size_t bi = 0;
  size_t ni = 0;
  while (bi < base.pairs_.size() || ni < new_edges.size()) {
    bool take_new = bi >= base.pairs_.size();
    if (!take_new && ni < new_edges.size()) {
      const PairEdge& bp = base.pairs_[bi];
      const InteractionGraph::Edge& ne = new_edges[ni];
      take_new =
          ne.src < bp.src || (ne.src == bp.src && ne.dst < bp.dst);
    }
    if (take_new) {
      // A pair with no series in the base graph.
      const VertexId src = new_edges[ni].src;
      const VertexId dst = new_edges[ni].dst;
      std::vector<Interaction> series;
      while (ni < new_edges.size() && new_edges[ni].src == src &&
             new_edges[ni].dst == dst) {
        series.push_back(Interaction{new_edges[ni].t, new_edges[ni].f});
        ++ni;
      }
      out.pairs_.push_back(
          PairEdge{src, dst, EdgeSeries(std::move(series), epoch)});
      topology_changed = true;
      continue;
    }
    const PairEdge& bp = base.pairs_[bi];
    std::vector<Interaction> tail;
    while (ni < new_edges.size() && new_edges[ni].src == bp.src &&
           new_edges[ni].dst == bp.dst) {
      tail.push_back(Interaction{new_edges[ni].t, new_edges[ni].f});
      ++ni;
    }
    if (tail.empty()) {
      out.pairs_.push_back(bp);  // shared storage, same identity
    } else {
      out.pairs_.push_back(PairEdge{
          bp.src, bp.dst, bp.series.WithAppended(std::move(tail), epoch)});
    }
    ++bi;
  }

  if (topology_changed) {
    out.index_ = std::make_shared<const Index>(
        BuildIndex(out.pairs_, num_vertices));
    out.topology_epoch_ = epoch;
  } else {
    out.index_ = base.index_;  // shared topology, same identity
    out.topology_epoch_ = base.topology_epoch_;
  }
  return out;
}

const EdgeSeries* TimeSeriesGraph::FindSeries(VertexId u, VertexId v) const {
  int64_t idx = FindPairIndex(u, v);
  return idx < 0 ? nullptr : &pairs_[static_cast<size_t>(idx)].series;
}

int64_t TimeSeriesGraph::FindPairIndex(VertexId u, VertexId v) const {
  if (u < 0 || u >= num_vertices()) return -1;
  size_t lo = OutBegin(u);
  size_t hi = OutEnd(u);
  // Binary search for dst == v within u's contiguous out-range.
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (pairs_[mid].dst < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < OutEnd(u) && pairs_[lo].dst == v) return static_cast<int64_t>(lo);
  return -1;
}

TimeSeriesGraph::Stats TimeSeriesGraph::ComputeStats() const {
  Stats stats;
  stats.num_vertices = num_vertices();
  stats.num_connected_pairs = num_pairs();
  double total_flow = 0.0;
  Timestamp min_t = std::numeric_limits<Timestamp>::max();
  Timestamp max_t = std::numeric_limits<Timestamp>::min();
  for (const PairEdge& pe : pairs_) {
    stats.num_interactions += static_cast<int64_t>(pe.series.size());
    total_flow += pe.series.TotalFlow();
    if (!pe.series.empty()) {
      min_t = std::min(min_t, pe.series.time(0));
      max_t = std::max(max_t, pe.series.time(pe.series.size() - 1));
    }
  }
  if (stats.num_interactions > 0) {
    stats.avg_flow_per_edge =
        total_flow / static_cast<double>(stats.num_interactions);
    stats.min_time = min_t;
    stats.max_time = max_t;
  }
  return stats;
}

TimeSeriesGraph TimeSeriesGraph::WithPermutedFlows(Rng* rng) const {
  FLOWMOTIF_CHECK(rng != nullptr);
  // Collect every flow value in deterministic (pair, index) order and
  // shuffle the multiset; WithFlows writes it back in the same order.
  // Structure and timestamps are untouched, exactly as in Sec. 6.3.
  std::vector<Flow> all_flows;
  for (const PairEdge& pe : pairs_) {
    for (size_t i = 0; i < pe.series.size(); ++i) {
      all_flows.push_back(pe.series.flow(i));
    }
  }
  rng->Shuffle(&all_flows);
  return WithFlows(all_flows);
}

TimeSeriesGraph TimeSeriesGraph::WithFlows(
    const std::vector<Flow>& flows) const {
  // Structure and timestamps are immutable shared storage, so the view
  // references them instead of copying: only the flow arrays (and their
  // prefix sums) are allocated.
  TimeSeriesGraph out;
  out.index_ = index_;  // shared topology, same identity
  out.topology_epoch_ = topology_epoch_;
  out.pairs_.reserve(pairs_.size());
  size_t cursor = 0;
  std::vector<Flow> series_flows;  // reused: EdgeSeries::WithFlows copies
  for (const PairEdge& pe : pairs_) {
    FLOWMOTIF_CHECK_LE(cursor + pe.series.size(), flows.size());
    series_flows.assign(flows.begin() + cursor,
                        flows.begin() + cursor + pe.series.size());
    cursor += pe.series.size();
    out.pairs_.push_back(
        PairEdge{pe.src, pe.dst, pe.series.WithFlows(series_flows)});
  }
  FLOWMOTIF_CHECK_EQ(cursor, flows.size());
  return out;
}

TimeSeriesGraph TimeSeriesGraph::DeepCopy() const {
  TimeSeriesGraph out;
  out.index_ = std::make_shared<const Index>(*index_);
  out.topology_epoch_ = topology_epoch_;
  out.pairs_.reserve(pairs_.size());
  for (const PairEdge& pe : pairs_) {
    out.pairs_.push_back(PairEdge{pe.src, pe.dst, pe.series.DeepCopy()});
  }
  return out;
}

std::string TimeSeriesGraph::DebugString() const {
  Stats s = ComputeStats();
  std::ostringstream os;
  os << "TimeSeriesGraph{vertices=" << s.num_vertices
     << " pairs=" << s.num_connected_pairs
     << " interactions=" << s.num_interactions
     << " avg_flow=" << s.avg_flow_per_edge << "}";
  return os.str();
}

}  // namespace flowmotif
