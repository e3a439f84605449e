#include "stream/streaming_monitor.h"

#include <algorithm>
#include <queue>

#include "core/structural_match.h"
#include "core/window_cursor.h"
#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace flowmotif {

namespace {

/// Last interaction time of an instance, straight off the view's slices
/// (every slice of an emitted instance is non-empty).
Timestamp InstanceEndFromView(const InstanceView& view) {
  Timestamp end = std::numeric_limits<Timestamp>::min();
  for (const EdgeSlice& slice : *view.slices) {
    end = std::max(end, slice.series->time(slice.end - 1));
  }
  return end;
}

}  // namespace

StreamingMotifMonitor::StreamingMotifMonitor(const Motif& motif,
                                             const StreamOptions& options)
    : motif_(motif), options_(options) {
  FLOWMOTIF_CHECK_GE(options.delta, 0) << "delta must be non-negative";
  FLOWMOTIF_CHECK_GE(options.phi, 0.0) << "phi must be non-negative";
  snapshot_ = log_.Snapshot();
}

StreamingMotifMonitor::StreamingMotifMonitor(const Motif& motif,
                                             const StreamOptions& options,
                                             const InteractionGraph& seed)
    : motif_(motif), options_(options), log_(seed) {
  FLOWMOTIF_CHECK_GE(options.delta, 0) << "delta must be non-negative";
  FLOWMOTIF_CHECK_GE(options.phi, 0.0) << "phi must be non-negative";
  snapshot_ = log_.Snapshot();
  InitializeFromSnapshot();
}

void StreamingMotifMonitor::InitializeFromSnapshot() {
  const TimeSeriesGraph& graph = *snapshot_;
  StructuralMatcher matcher(graph, motif_);
  matcher.FindAll([&](const MatchBinding& binding) {
    canonical_ids_.push_back(CreateMatch(binding));
    return true;
  });
  RebuildCanonicalPos();
  if (matches_.empty()) return;

  // The seed is entirely behind the watermark except for interactions at
  // the watermark itself; windows reaching it stay hot so later appends
  // at the same timestamp land inside them correctly.
  EnumerationOptions eopts;
  eopts.delta = options_.delta;
  eopts.phi = options_.phi;
  const FlowMotifEnumerator enumerator(graph, motif_, eopts);
  EpochStats stats;
  std::vector<Timestamp> new_ends;
  for (const size_t id : canonical_ids_) {
    RevisitMatch(id, enumerator, log_.watermark(), 0, &stats, &new_ends);
  }
  if (!new_ends.empty()) {
    std::sort(new_ends.begin(), new_ends.end());
    horizon_.push_back(HorizonSegment{new_ends.back(), std::move(new_ends)});
  }
}

size_t StreamingMotifMonitor::CreateMatch(const MatchBinding& binding) {
  const size_t id = matches_.size();
  matches_.emplace_back();
  matches_.back().binding = binding;
  for (int e = 0; e < motif_.num_edges(); ++e) {
    const auto [src, dst] = motif_.edge(e);
    auto& bucket = matches_by_pair_[PairKey(
        binding[static_cast<size_t>(src)], binding[static_cast<size_t>(dst)])];
    // A motif can bind the same graph pair through several edges; one
    // registration suffices.
    if (bucket.empty() || bucket.back() != id) bucket.push_back(id);
  }
  return id;
}

void StreamingMotifMonitor::RebuildCanonicalPos() {
  canonical_pos_.assign(matches_.size(), 0);
  for (size_t pos = 0; pos < canonical_ids_.size(); ++pos) {
    canonical_pos_[canonical_ids_[pos]] = pos;
  }
}

void StreamingMotifMonitor::RefreshMatchesFull(const TimeSeriesGraph& graph,
                                               std::vector<size_t>* new_ids) {
  // P1 order is append-stable, so the old canonical list is an in-order
  // subsequence of the fresh enumeration; the greedy two-pointer diff is
  // exact because a binding occurs at most once in P1 output.
  StructuralMatcher matcher(graph, motif_);
  std::vector<size_t> fresh;
  fresh.reserve(canonical_ids_.size());
  size_t old_i = 0;
  matcher.FindAll([&](const MatchBinding& binding) {
    if (old_i < canonical_ids_.size() &&
        matches_[canonical_ids_[old_i]].binding == binding) {
      fresh.push_back(canonical_ids_[old_i++]);
    } else {
      const size_t id = CreateMatch(binding);
      fresh.push_back(id);
      new_ids->push_back(id);
    }
    return true;
  });
  FLOWMOTIF_CHECK_EQ(old_i, canonical_ids_.size())
      << "P1 enumeration order was not append-stable";
  canonical_ids_ = std::move(fresh);
  RebuildCanonicalPos();
}

void StreamingMotifMonitor::RefreshMatchesPath(const TimeSeriesGraph& graph,
                                               const EpochLog::SealInfo& info,
                                               std::vector<size_t>* new_ids) {
  // A path-motif match uses every motif edge as a forward step of the
  // spanning walk, so a match can involve a new pair (u, v) only if its
  // origin reaches u within num_edges() - 1 forward hops — equivalently,
  // u reaches the origin within that many *reverse* hops. BFS the
  // reverse adjacency from each new pair's source to collect the
  // affected origins; every other origin's work unit is untouched and
  // its old match segment is copied through verbatim.
  const int64_t n = graph.num_vertices();
  std::vector<char> affected(static_cast<size_t>(n), 0);
  {
    std::vector<char> seen(static_cast<size_t>(n), 0);
    std::queue<std::pair<VertexId, int>> queue;  // (vertex, reverse depth)
    for (const auto& [src, dst] : info.new_pairs) {
      if (!seen[static_cast<size_t>(src)]) {
        seen[static_cast<size_t>(src)] = 1;
        queue.push({src, 0});
      }
    }
    const int max_depth = motif_.num_edges() - 1;
    while (!queue.empty()) {
      const auto [v, depth] = queue.front();
      queue.pop();
      affected[static_cast<size_t>(v)] = 1;
      if (depth == max_depth) continue;
      for (size_t k = graph.InBegin(v); k < graph.InEnd(v); ++k) {
        const VertexId u = graph.pair(graph.InPairIndex(k)).src;
        if (!seen[static_cast<size_t>(u)]) {
          seen[static_cast<size_t>(u)] = 1;
          queue.push({u, depth + 1});
        }
      }
    }
  }

  StructuralMatcher matcher(graph, motif_);
  std::vector<size_t> fresh;
  fresh.reserve(canonical_ids_.size());
  const size_t old_n = canonical_ids_.size();
  size_t old_i = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (!affected[static_cast<size_t>(v)]) {
      // Untouched origin: its old segment is final; copy it through.
      while (old_i < old_n && OriginOf(canonical_ids_[old_i]) == v) {
        fresh.push_back(canonical_ids_[old_i++]);
      }
      continue;
    }
    matcher.FindInUnits(v, v + 1, [&](const MatchBinding& binding) {
      if (old_i < old_n && OriginOf(canonical_ids_[old_i]) == v &&
          matches_[canonical_ids_[old_i]].binding == binding) {
        fresh.push_back(canonical_ids_[old_i++]);
      } else {
        const size_t id = CreateMatch(binding);
        fresh.push_back(id);
        new_ids->push_back(id);
      }
      return true;
    });
    FLOWMOTIF_CHECK(old_i >= old_n || OriginOf(canonical_ids_[old_i]) != v)
        << "affected-origin rescan lost an existing match";
  }
  FLOWMOTIF_CHECK_EQ(old_i, old_n)
      << "path-motif origin rescan left old matches unconsumed";
  canonical_ids_ = std::move(fresh);
  RebuildCanonicalPos();
}

StreamingMotifMonitor::EpochStats StreamingMotifMonitor::SealEpoch() {
  // A control exists only when a failpoint is armed; the normal path
  // hands a nullptr through and pays nothing per revisit.
  const std::unique_ptr<QueryControl> control =
      MakeQueryControl(nullptr, QueryDeadline(), WorkBudget());
  return SealEpoch(control.get());
}

StreamingMotifMonitor::EpochStats StreamingMotifMonitor::SealEpoch(
    QueryControl* control) {
  const EpochLog::SealInfo info = log_.SealEpoch();
  EpochStats stats;
  stats.epoch = info.epoch;
  stats.num_appended = info.num_appended;
  if (info.num_appended == 0 && pending_revisit_.empty()) {
    stats.num_matches_total = matches_.size();
    if (control != nullptr) stats.termination = control->Finish(0);
    return stats;
  }
  // An empty-tail seal with a non-empty deferred queue proceeds
  // revisit-only against the unchanged snapshot.
  if (info.num_appended > 0) snapshot_ = info.graph;
  const TimeSeriesGraph& graph = *snapshot_;
  const Timestamp settle_before = info.watermark;

  std::vector<size_t> new_ids;
  if (info.topology_changed) {
    if (motif_.is_path()) {
      RefreshMatchesPath(graph, info, &new_ids);
    } else {
      RefreshMatchesFull(graph, &new_ids);
      stats.full_rescan = true;
    }
  }
  stats.num_new_matches = new_ids.size();
  stats.num_matches_total = matches_.size();

  // The revisit set: matches bound to a dirty pair, matches whose
  // earliest hot window just settled, brand-new matches, and revisits a
  // stopped earlier seal deferred. Everything else is provably
  // unchanged — its series are untouched and its hot windows (if any)
  // still end at or past the new watermark.
  std::vector<char> marked(matches_.size(), 0);
  std::vector<size_t> revisit;
  const auto mark = [&](size_t id) {
    if (!marked[id]) {
      marked[id] = 1;
      revisit.push_back(id);
    }
  };
  for (const auto& [src, dst] : info.dirty_pairs) {
    const auto it = matches_by_pair_.find(PairKey(src, dst));
    if (it == matches_by_pair_.end()) continue;
    for (const size_t id : it->second) mark(id);
  }
  for (auto it = hot_queue_.begin();
       it != hot_queue_.end() && it->first < settle_before; ++it) {
    mark(it->second);
  }
  for (const size_t id : new_ids) mark(id);
  for (const size_t id : pending_revisit_) mark(id);
  pending_revisit_.clear();
  std::sort(revisit.begin(), revisit.end(), [&](size_t a, size_t b) {
    return canonical_pos_[a] < canonical_pos_[b];
  });

  EnumerationOptions eopts;
  eopts.delta = options_.delta;
  eopts.phi = options_.phi;
  const FlowMotifEnumerator enumerator(graph, motif_, eopts);
  std::vector<Timestamp> new_ends;
  size_t applied = 0;
  for (size_t i = 0; i < revisit.size(); ++i) {
    if (control != nullptr && control->CheckAt(failpoint::kStreamRevisit)) {
      // Each RevisitMatch already applied is final; defer the rest to
      // the next seal. A revisit is idempotent against an unchanged
      // snapshot, so re-running a deferred id later is safe even if it
      // meanwhile re-enters the set through a dirty pair.
      pending_revisit_.assign(revisit.begin() + static_cast<long>(i),
                              revisit.end());
      stats.num_revisits_deferred =
          static_cast<int64_t>(revisit.size() - i);
      break;
    }
    RevisitMatch(revisit[i], enumerator, settle_before, info.epoch, &stats,
                 &new_ends);
    ++applied;
  }
  stats.num_matches_revisited = applied;
  if (control != nullptr) {
    stats.termination = control->Finish(static_cast<int64_t>(applied));
  }

  if (options_.horizon > 0) {
    if (!new_ends.empty()) {
      std::sort(new_ends.begin(), new_ends.end());
      horizon_.push_back(
          HorizonSegment{new_ends.back(), std::move(new_ends)});
    }
    // Expire whole segments that aged out of the horizon. max_end is not
    // monotone across segments (an instance hot for many epochs can
    // settle with an old end time), so this pops a prefix only; live
    // counts binary-search inside survivors either way.
    const std::optional<Timestamp> cutoff = HorizonCutoff();
    while (cutoff.has_value() && !horizon_.empty() &&
           horizon_.front().max_end <= *cutoff) {
      horizon_.pop_front();
    }
  }
  return stats;
}

void StreamingMotifMonitor::RevisitMatch(
    size_t id, const FlowMotifEnumerator& enumerator, Timestamp settle_before,
    EpochId epoch, EpochStats* stats,
    std::vector<Timestamp>* new_settled_ends) {
  MatchState& m = matches_[id];
  const TimeSeriesGraph& graph = *snapshot_;

  if (!m.hot_windows.empty()) {
    hot_queue_.erase({m.hot_windows.front().end, id});
  }
  hot_instances_ -= static_cast<int64_t>(m.hot.size());

  const EdgeSeries& first = *ResolveEdgeSeries(graph, motif_, m.binding, 0);
  const EdgeSeries& last =
      *ResolveEdgeSeries(graph, motif_, m.binding, motif_.num_edges() - 1);

  // Windows ending below the watermark are settled and the scan advances
  // past them for good; a copy of the scan runs on to the end for the hot
  // windows, which the next revisit recomputes from the settled boundary.
  settled_windows_scratch_.clear();
  m.scan.AdvanceBefore(first, last, options_.delta, settle_before,
                       &settled_windows_scratch_);
  m.hot_windows.clear();
  WindowScan(m.scan).AdvanceToEnd(first, last, options_.delta,
                                  &m.hot_windows);

  if (!settled_windows_scratch_.empty()) {
    const InstanceVisitor visitor = [&](const InstanceView& view) {
      const Timestamp end = InstanceEndFromView(view);
      const int64_t emit = m.settled_emits++;
      ++settled_instances_;
      ++stats->num_instances_settled;
      OfferSettled(view.flow, id, emit, end, view);
      if (options_.horizon > 0) new_settled_ends->push_back(end);
      if (view.flow >= options_.alert_min_flow) {
        ++stats->num_alerts;
        if (alert_callback_) {
          Alert alert;
          alert.epoch = epoch;
          alert.flow = view.flow;
          alert.end_time = end;
          alert.instance = view.Materialize();
          alert_callback_(alert);
        }
      }
      return true;
    };
    enumerator.EnumerateMatchWindows(
        m.binding, settled_windows_scratch_.data(),
        settled_windows_scratch_.data() + settled_windows_scratch_.size(),
        visitor, &enum_stats_, &enumeration_scratch_);
  }

  m.hot.clear();
  if (!m.hot_windows.empty()) {
    // Hot instances are re-derived from scratch each revisit; their emit
    // indices continue the match's settled numbering, so the combined
    // (settled, hot) sequence carries exactly the batch discovery ranks.
    int64_t hot_emit = m.settled_emits;
    const InstanceVisitor visitor = [&](const InstanceView& view) {
      m.hot.push_back(HotInstance{view.flow, InstanceEndFromView(view),
                                  hot_emit++, view.Materialize()});
      return true;
    };
    enumerator.EnumerateMatchWindows(
        m.binding, m.hot_windows.data(),
        m.hot_windows.data() + m.hot_windows.size(), visitor, &enum_stats_,
        &enumeration_scratch_);
    hot_queue_.insert({m.hot_windows.front().end, id});
  }
  hot_instances_ += static_cast<int64_t>(m.hot.size());
}

bool StreamingMotifMonitor::EntryOutranks(Flow a_flow, size_t a_match,
                                          int64_t a_emit, Flow b_flow,
                                          size_t b_match,
                                          int64_t b_emit) const {
  if (a_flow != b_flow) return a_flow > b_flow;
  const size_t a_pos = canonical_pos_[a_match];
  const size_t b_pos = canonical_pos_[b_match];
  if (a_pos != b_pos) return a_pos < b_pos;
  return a_emit < b_emit;
}

void StreamingMotifMonitor::OfferSettled(Flow flow, size_t match_id,
                                         int64_t emit_index, Timestamp end,
                                         const InstanceView& view) {
  if (options_.k <= 0) return;
  if (static_cast<int64_t>(settled_topk_.size()) < options_.k) {
    settled_topk_.push_back(
        SettledEntry{flow, match_id, emit_index, end, view.Materialize()});
    return;
  }
  // Pool full: replace the worst entry iff the newcomer outranks it.
  // Dropping the loser is final — its comparands (flow, discovery rank)
  // never change, so it can never re-enter a future top-k.
  size_t worst = 0;
  for (size_t i = 1; i < settled_topk_.size(); ++i) {
    if (EntryOutranks(settled_topk_[worst].flow, settled_topk_[worst].match_id,
                      settled_topk_[worst].emit_index, settled_topk_[i].flow,
                      settled_topk_[i].match_id,
                      settled_topk_[i].emit_index)) {
      worst = i;
    }
  }
  if (EntryOutranks(flow, match_id, emit_index, settled_topk_[worst].flow,
                    settled_topk_[worst].match_id,
                    settled_topk_[worst].emit_index)) {
    settled_topk_[worst] =
        SettledEntry{flow, match_id, emit_index, end, view.Materialize()};
  }
}

std::optional<Timestamp> StreamingMotifMonitor::HorizonCutoff() const {
  // An empty log's watermark is the Timestamp minimum, and appends may
  // lie within `horizon` of it: there watermark - horizon is below the
  // time axis, and every instance is still live.
  const Timestamp watermark = log_.watermark();
  if (watermark < std::numeric_limits<Timestamp>::min() + options_.horizon) {
    return std::nullopt;
  }
  return watermark - options_.horizon;
}

int64_t StreamingMotifMonitor::LiveInstances() const {
  if (options_.horizon <= 0) return TotalInstances();
  const std::optional<Timestamp> found = HorizonCutoff();
  // No cutoff now means none ever was (the watermark never falls), so
  // nothing has expired.
  if (!found.has_value()) return TotalInstances();
  const Timestamp cutoff = *found;
  int64_t live = 0;
  for (const HorizonSegment& segment : horizon_) {
    if (segment.max_end <= cutoff) continue;
    live += segment.ends.end() - std::upper_bound(segment.ends.begin(),
                                                  segment.ends.end(), cutoff);
  }
  for (const auto& [min_end, id] : hot_queue_) {
    for (const HotInstance& hot : matches_[id].hot) {
      if (hot.end > cutoff) ++live;
    }
  }
  return live;
}

std::vector<TopKEntry> StreamingMotifMonitor::TopK() const {
  struct Candidate {
    Flow flow;
    size_t pos;
    int64_t emit;
    const MotifInstance* instance;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(settled_topk_.size());
  for (const SettledEntry& e : settled_topk_) {
    candidates.push_back(
        Candidate{e.flow, canonical_pos_[e.match_id], e.emit_index,
                  &e.instance});
  }
  for (const auto& [min_end, id] : hot_queue_) {
    for (const HotInstance& hot : matches_[id].hot) {
      candidates.push_back(
          Candidate{hot.flow, canonical_pos_[id], hot.emit_index,
                    &hot.instance});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.flow != b.flow) return a.flow > b.flow;
              if (a.pos != b.pos) return a.pos < b.pos;
              return a.emit < b.emit;
            });
  const size_t take = options_.k <= 0
                          ? 0
                          : std::min(candidates.size(),
                                     static_cast<size_t>(options_.k));
  std::vector<TopKEntry> result;
  result.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    result.push_back(TopKEntry{candidates[i].flow, *candidates[i].instance});
  }
  return result;
}

}  // namespace flowmotif
