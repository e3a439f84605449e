#include "engine/batching.h"

#include <utility>

#include "util/logging.h"

namespace flowmotif {

ShardPrefixMerger::ShardPrefixMerger(int64_t num_shards)
    : shards_(static_cast<size_t>(num_shards)),
      complete_(static_cast<size_t>(num_shards), false) {
  FLOWMOTIF_CHECK_GE(num_shards, 0);
}

std::vector<ShardPrefixMerger::ReleasedShardEntry> ShardPrefixMerger::Complete(
    int64_t shard, MatchList matches) {
  std::lock_guard<std::mutex> lock(mu_);
  FLOWMOTIF_CHECK_GE(shard, 0);
  FLOWMOTIF_CHECK_LT(shard, static_cast<int64_t>(shards_.size()));
  FLOWMOTIF_CHECK(!complete_[static_cast<size_t>(shard)])
      << "shard " << shard << " completed twice";
  shards_[static_cast<size_t>(shard)] = std::move(matches);
  complete_[static_cast<size_t>(shard)] = true;

  std::vector<ReleasedShardEntry> released;
  while (next_unreleased_ < static_cast<int64_t>(shards_.size()) &&
         complete_[static_cast<size_t>(next_unreleased_)]) {
    const MatchList& buffer = shards_[static_cast<size_t>(next_unreleased_)];
    released.push_back({next_unreleased_, {released_matches_, &buffer}});
    released_matches_ += buffer.size();
    ++next_unreleased_;
  }
  return released;
}

void ShardPrefixMerger::FreeShard(int64_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  FLOWMOTIF_CHECK_GE(shard, 0);
  FLOWMOTIF_CHECK_LT(shard, static_cast<int64_t>(shards_.size()));
  // Element addresses in shards_ stay stable; only this slot's buffer
  // is reclaimed.
  shards_[static_cast<size_t>(shard)] = MatchList();
}

int64_t ShardPrefixMerger::num_released() const {
  std::lock_guard<std::mutex> lock(mu_);
  return released_matches_;
}

}  // namespace flowmotif
