#include "core/structural_match.h"

#include <set>

#include "util/failpoint.h"
#include "util/logging.h"

namespace flowmotif {

StructuralMatcher::StructuralMatcher(const TimeSeriesGraph& graph,
                                     const Motif& motif)
    : graph_(graph), motif_(motif) {}

void StructuralMatcher::FindAll(const MatchVisitor& visitor) const {
  FindInUnits(0, NumWorkUnits(), visitor);
}

int64_t StructuralMatcher::NumWorkUnits() const {
  return motif_.is_path() ? static_cast<int64_t>(graph_.num_vertices())
                          : static_cast<int64_t>(graph_.num_pairs());
}

bool StructuralMatcher::FindInUnits(int64_t begin, int64_t end,
                                    const MatchVisitor& visitor) const {
  FLOWMOTIF_CHECK(visitor != nullptr);
  FLOWMOTIF_CHECK_GE(begin, 0);
  FLOWMOTIF_CHECK_LE(end, NumWorkUnits());
  MatchBinding binding(static_cast<size_t>(motif_.num_nodes()), -1);
  // The injectivity filter: a graph vertex may back at most one motif
  // node. A bitmap over vertices keeps the check O(1); motif sizes are
  // tiny so the DFS stack stays shallow.
  std::vector<bool> vertex_used(static_cast<size_t>(graph_.num_vertices()),
                                false);
  bool stop = false;
  for (int64_t unit = begin; unit < end && !stop; ++unit) {
    FindInUnitImpl(unit, &binding, &vertex_used, visitor, &stop);
  }
  return !stop;
}

void StructuralMatcher::FindInUnitImpl(int64_t unit, MatchBinding* binding,
                                       std::vector<bool>* vertex_used,
                                       const MatchVisitor& visitor,
                                       bool* stop) const {
  if (motif_.is_path()) {
    const VertexId v = static_cast<VertexId>(unit);
    if (graph_.OutDegree(v) == 0) return;  // origin needs an out-edge
    const MotifNode origin = motif_.path().front();
    (*binding)[static_cast<size_t>(origin)] = v;
    (*vertex_used)[static_cast<size_t>(v)] = true;
    Dfs(0, binding, vertex_used, visitor, stop);
    (*vertex_used)[static_cast<size_t>(v)] = false;
    (*binding)[static_cast<size_t>(origin)] = -1;
    return;
  }
  // General motif: the unit binds the first labeled edge to one pair
  // edge (both endpoints are necessarily fresh at edge 0), then the
  // usual label-order backtracking takes over.
  const TimeSeriesGraph::PairEdge& pe =
      graph_.pair(static_cast<size_t>(unit));
  if (pe.src == pe.dst) return;  // motifs have no self-loops
  const auto [src_node, dst_node] = motif_.edge(0);
  (*binding)[static_cast<size_t>(src_node)] = pe.src;
  (*vertex_used)[static_cast<size_t>(pe.src)] = true;
  (*binding)[static_cast<size_t>(dst_node)] = pe.dst;
  (*vertex_used)[static_cast<size_t>(pe.dst)] = true;
  GeneralDfs(1, binding, vertex_used, visitor, stop);
  (*vertex_used)[static_cast<size_t>(pe.dst)] = false;
  (*binding)[static_cast<size_t>(dst_node)] = -1;
  (*vertex_used)[static_cast<size_t>(pe.src)] = false;
  (*binding)[static_cast<size_t>(src_node)] = -1;
}

void StructuralMatcher::GeneralDfs(int edge_idx, MatchBinding* binding,
                                   std::vector<bool>* vertex_used,
                                   const MatchVisitor& visitor,
                                   bool* stop) const {
  if (*stop) return;
  if (edge_idx == motif_.num_edges()) {
    if (!visitor(*binding)) *stop = true;
    return;
  }
  const auto [src_node, dst_node] = motif_.edge(edge_idx);
  const VertexId src = (*binding)[static_cast<size_t>(src_node)];
  const VertexId dst = (*binding)[static_cast<size_t>(dst_node)];

  auto bind_and_recurse = [&](MotifNode node, VertexId v) {
    (*binding)[static_cast<size_t>(node)] = v;
    (*vertex_used)[static_cast<size_t>(v)] = true;
    GeneralDfs(edge_idx + 1, binding, vertex_used, visitor, stop);
    (*vertex_used)[static_cast<size_t>(v)] = false;
    (*binding)[static_cast<size_t>(node)] = -1;
  };

  if (src >= 0 && dst >= 0) {
    if (graph_.FindPairIndex(src, dst) >= 0) {
      GeneralDfs(edge_idx + 1, binding, vertex_used, visitor, stop);
    }
    return;
  }
  if (src >= 0) {
    // New target: out-neighbors of the bound source.
    for (size_t p = graph_.OutBegin(src); p < graph_.OutEnd(src); ++p) {
      if (*stop) return;
      const VertexId to = graph_.pair(p).dst;
      if ((*vertex_used)[static_cast<size_t>(to)]) continue;
      bind_and_recurse(dst_node, to);
    }
    return;
  }
  if (dst >= 0) {
    // New source: in-neighbors of the bound target.
    for (size_t k = graph_.InBegin(dst); k < graph_.InEnd(dst); ++k) {
      if (*stop) return;
      const VertexId from = graph_.pair(graph_.InPairIndex(k)).src;
      if ((*vertex_used)[static_cast<size_t>(from)]) continue;
      bind_and_recurse(src_node, from);
    }
    return;
  }
  // Both endpoints fresh (only possible for motifs whose label order
  // visits a new weak component before linking it — rare but legal):
  // scan the pair table.
  for (size_t p = 0; p < static_cast<size_t>(graph_.num_pairs()) && !*stop;
       ++p) {
    const TimeSeriesGraph::PairEdge& pe = graph_.pair(p);
    if (pe.src == pe.dst) continue;
    if ((*vertex_used)[static_cast<size_t>(pe.src)] ||
        (*vertex_used)[static_cast<size_t>(pe.dst)]) {
      continue;
    }
    (*binding)[static_cast<size_t>(src_node)] = pe.src;
    (*vertex_used)[static_cast<size_t>(pe.src)] = true;
    bind_and_recurse(dst_node, pe.dst);
    (*vertex_used)[static_cast<size_t>(pe.src)] = false;
    (*binding)[static_cast<size_t>(src_node)] = -1;
  }
}

void StructuralMatcher::Dfs(size_t step, MatchBinding* binding,
                            std::vector<bool>* vertex_used,
                            const MatchVisitor& visitor, bool* stop) const {
  if (*stop) return;
  const std::vector<MotifNode>& path = motif_.path();
  if (step + 1 == path.size()) {
    if (!visitor(*binding)) *stop = true;
    return;
  }
  const VertexId from = (*binding)[static_cast<size_t>(path[step])];
  const MotifNode next_node = path[step + 1];
  const VertexId bound_to = (*binding)[static_cast<size_t>(next_node)];

  if (bound_to >= 0) {
    // Node already fixed by an earlier path position (cycle / repeat):
    // only the edge existence must be verified.
    if (graph_.FindPairIndex(from, bound_to) >= 0) {
      Dfs(step + 1, binding, vertex_used, visitor, stop);
    }
    return;
  }

  for (size_t p = graph_.OutBegin(from); p < graph_.OutEnd(from); ++p) {
    if (*stop) return;
    const VertexId to = graph_.pair(p).dst;
    if ((*vertex_used)[static_cast<size_t>(to)]) continue;  // injectivity
    (*binding)[static_cast<size_t>(next_node)] = to;
    (*vertex_used)[static_cast<size_t>(to)] = true;
    Dfs(step + 1, binding, vertex_used, visitor, stop);
    (*vertex_used)[static_cast<size_t>(to)] = false;
    (*binding)[static_cast<size_t>(next_node)] = -1;
  }
}

std::vector<MatchBinding> StructuralMatcher::FindAllMatches() const {
  std::vector<MatchBinding> matches;
  FindAll([&matches](const MatchBinding& b) {
    matches.push_back(b);
    return true;
  });
  return matches;
}

int64_t StructuralMatcher::CountMatches() const {
  int64_t count = 0;
  FindAll([&count](const MatchBinding&) {
    ++count;
    return true;
  });
  return count;
}

bool StructuralMatcher::IsMatch(const MatchBinding& binding) const {
  if (static_cast<int>(binding.size()) != motif_.num_nodes()) return false;
  std::set<VertexId> used;
  for (VertexId v : binding) {
    if (v < 0 || v >= graph_.num_vertices()) return false;
    if (!used.insert(v).second) return false;
  }
  for (int i = 0; i < motif_.num_edges(); ++i) {
    const auto [src, dst] = motif_.edge(i);
    if (graph_.FindPairIndex(binding[static_cast<size_t>(src)],
                             binding[static_cast<size_t>(dst)]) < 0) {
      return false;
    }
  }
  return true;
}

bool ScanMatchUnits(const StructuralMatcher& matcher, IndexRange units,
                    QueryControl* control, int64_t cap, MatchList* out) {
  const StructuralMatcher::MatchVisitor push =
      [out, cap](const MatchBinding& binding) {
        if (cap >= 0 && out->size() >= cap) return false;
        out->Append(binding);
        return true;
      };
  if (control == nullptr) {
    return matcher.FindInUnits(units.begin, units.end, push);
  }
  for (int64_t u = units.begin; u < units.end; ++u) {
    if (control->CheckAt(failpoint::kP1Unit) ||
        !matcher.FindInUnits(u, u + 1, push)) {
      return false;
    }
  }
  return true;
}

MatchList FindMatchesControlled(const StructuralMatcher& matcher,
                                ThreadPool* pool, QueryControl* control) {
  MatchList matches(matcher.motif().num_nodes());
  const int64_t max_matches =
      control != nullptr ? control->budget().max_matches : -1;
  if (max_matches >= 0 || pool == nullptr || pool->num_threads() == 1) {
    // One serial unit scan. Under max_matches the cut lands at exactly
    // max_matches in canonical order, independent of scheduling; it is
    // a soft truncation, so callers still evaluate the kept prefix.
    if (!ScanMatchUnits(matcher, {0, matcher.NumWorkUnits()}, control,
                        max_matches, &matches) &&
        max_matches >= 0 && !control->ShouldStop()) {
      control->MarkTruncated(TerminationCode::kBudgetExceeded,
                             failpoint::kP1Unit, "max_matches");
    }
    return matches;
  }
  const std::vector<IndexRange> ranges =
      PartitionIndexSpace(matcher.NumWorkUnits(), pool->num_threads());
  std::vector<MatchList> buffers(ranges.size(), matches);
  std::vector<uint8_t> complete(ranges.size(), 0);
  pool->ParallelFor(static_cast<int64_t>(ranges.size()), [&](int64_t r) {
    const size_t i = static_cast<size_t>(r);
    complete[i] =
        ScanMatchUnits(matcher, ranges[i], control, /*cap=*/-1, &buffers[i]);
  });
  int64_t total = 0;
  for (const MatchList& buffer : buffers) total += buffer.size();
  matches.Reserve(total);
  for (size_t r = 0; r < ranges.size(); ++r) {
    matches.Append(buffers[r]);
    if (complete[r] == 0) break;
  }
  return matches;
}

}  // namespace flowmotif
