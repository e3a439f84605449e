#include "core/multi_enumerator.h"

#include <utility>

#include "util/timer.h"

namespace flowmotif {

StatusOr<MultiMotifEnumerator> MultiMotifEnumerator::Create(
    const TimeSeriesGraph& graph, std::vector<Motif> motifs,
    const EnumerationOptions& options) {
  StatusOr<MultiStructuralMatcher> matcher =
      MultiStructuralMatcher::Create(graph, motifs);
  if (!matcher.ok()) return matcher.status();
  return MultiMotifEnumerator(graph, std::move(motifs), options,
                              *std::move(matcher));
}

MultiMotifEnumerator::MultiMotifEnumerator(const TimeSeriesGraph& graph,
                                           std::vector<Motif> motifs,
                                           const EnumerationOptions& options,
                                           MultiStructuralMatcher matcher)
    : graph_(graph),
      motifs_(std::move(motifs)),
      options_(options),
      matcher_(std::move(matcher)) {}

std::vector<EnumerationResult> MultiMotifEnumerator::Run(
    const Visitor& visitor) const {
  std::vector<EnumerationResult> results(motifs_.size());
  std::vector<FlowMotifEnumerator> enumerators;
  std::vector<SharedWindowCache::Reader> readers;
  enumerators.reserve(motifs_.size());
  readers.reserve(motifs_.size());
  for (const Motif& motif : motifs_) {
    enumerators.emplace_back(graph_, motif, options_);
    readers.push_back(enumerators.back().NewReader());
  }

  WallTimer total_timer;
  double phase2_seconds = 0.0;
  matcher_.FindAll([&](size_t motif_idx, const MatchBinding& binding) {
    EnumerationResult& result = results[motif_idx];
    ++result.num_structural_matches;
    WallTimer p2_timer;
    InstanceVisitor wrapped;
    if (visitor) {
      wrapped = [&visitor, motif_idx](const InstanceView& view) {
        return visitor(motif_idx, view);
      };
    }
    const bool keep_going = enumerators[motif_idx].EnumerateMatch(
        binding, wrapped, &result, &readers[motif_idx]);
    phase2_seconds += p2_timer.ElapsedSeconds();
    result.phase2_seconds += p2_timer.ElapsedSeconds();
    return keep_going;
  });

  // The shared P1 cost cannot be attributed per motif; report the whole
  // pass's remainder on every entry so total_seconds() stays meaningful
  // for the set (callers comparing against per-motif runs should sum
  // phase2 and take phase1 once).
  const double phase1_seconds =
      std::max(0.0, total_timer.ElapsedSeconds() - phase2_seconds);
  for (EnumerationResult& result : results) {
    result.phase1_seconds = phase1_seconds;
  }
  return results;
}

}  // namespace flowmotif
