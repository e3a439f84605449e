#include "graph/epoch_log.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/logging.h"

namespace flowmotif {

EpochLog::EpochLog()
    : watermark_(std::numeric_limits<Timestamp>::min()),
      snapshot_(std::make_shared<const TimeSeriesGraph>()) {}

EpochLog::EpochLog(const InteractionGraph& seed)
    : watermark_(std::numeric_limits<Timestamp>::min()) {
  num_vertices_ = seed.num_vertices();
  auto graph = std::make_shared<const TimeSeriesGraph>(
      TimeSeriesGraph::Build(seed));
  TimeSeriesGraph::Stats stats = graph->ComputeStats();
  if (stats.num_interactions > 0) {
    watermark_ = stats.max_time;
    empty_ = false;
  }
  snapshot_ = std::move(graph);
}

EpochLog::EpochLog(TimeSeriesGraph seed)
    : watermark_(std::numeric_limits<Timestamp>::min()) {
  num_vertices_ = seed.num_vertices();
  auto graph = std::make_shared<const TimeSeriesGraph>(std::move(seed));
  TimeSeriesGraph::Stats stats = graph->ComputeStats();
  if (stats.num_interactions > 0) {
    watermark_ = stats.max_time;
    empty_ = false;
  }
  // Adopt the seed's epoch stamps: if the graph came out of another
  // log's ExtendWith chain, future seals here must stamp strictly
  // larger epochs so StorageIdentity keys can never alias across the
  // handoff.
  for (const TimeSeriesGraph::PairEdge& pair : graph->pairs()) {
    epoch_ = std::max(epoch_, pair.series.timestamp_identity().epoch);
  }
  snapshot_ = std::move(graph);
}

Status EpochLog::Append(VertexId src, VertexId dst, Timestamp t, Flow f) {
  // Validate everything before mutating anything: a rejected edge must
  // leave the tail (and the watermark) exactly as it found them.
  if (src < 0 || dst < 0) {
    return Status::InvalidArgument("vertex ids must be non-negative");
  }
  if (!std::isfinite(f) || f <= 0.0) {
    return Status::InvalidArgument("flows must be positive and finite");
  }
  if (!empty_ && t < watermark_) {
    return Status::InvalidArgument(
        "stream timestamps must be non-decreasing: t=" + std::to_string(t) +
        " < watermark=" + std::to_string(watermark_));
  }
  watermark_ = std::max(watermark_, t);
  empty_ = false;
  num_vertices_ =
      std::max(num_vertices_, static_cast<int64_t>(std::max(src, dst)) + 1);
  tail_.push_back(InteractionGraph::Edge{src, dst, t, f});
  return Status::OK();
}

EpochLog::SealInfo EpochLog::SealEpoch() {
  SealInfo info;
  info.watermark = watermark_;
  if (tail_.empty()) {
    info.epoch = epoch_;
    info.graph = Snapshot();
    return info;
  }

  std::shared_ptr<const TimeSeriesGraph> base = Snapshot();
  info.num_appended = tail_.size();
  info.min_new_time = tail_.front().t;  // monotone stream: front is min

  info.dirty_pairs.reserve(tail_.size());
  for (const InteractionGraph::Edge& e : tail_) {
    info.dirty_pairs.emplace_back(e.src, e.dst);
  }
  std::sort(info.dirty_pairs.begin(), info.dirty_pairs.end());
  info.dirty_pairs.erase(
      std::unique(info.dirty_pairs.begin(), info.dirty_pairs.end()),
      info.dirty_pairs.end());
  for (const auto& pair : info.dirty_pairs) {
    if (base->FindPairIndex(pair.first, pair.second) < 0) {
      info.new_pairs.push_back(pair);
    }
  }
  info.topology_changed =
      !info.new_pairs.empty() || num_vertices_ != base->num_vertices();

  info.epoch = ++epoch_;
  auto next = std::make_shared<const TimeSeriesGraph>(
      TimeSeriesGraph::ExtendWith(*base, std::move(tail_), num_vertices_,
                                  info.epoch));
  tail_.clear();
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_ = next;
  }
  info.graph = std::move(next);
  return info;
}

std::shared_ptr<const TimeSeriesGraph> EpochLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

}  // namespace flowmotif
