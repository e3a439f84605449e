#ifndef FLOWMOTIF_ENGINE_BATCHING_H_
#define FLOWMOTIF_ENGINE_BATCHING_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/match_list.h"

namespace flowmotif {

/// Coordinates the deterministic hand-off from parallel phase P1 to
/// phase P2 in the engine's executor (engine/executor.h). P1 shard tasks
/// (contiguous ranges of structural-match work units) complete in
/// arbitrary order; a shard's matches are released only once every
/// earlier shard has completed, so released matches always form a
/// contiguous prefix of the serial P1 order and each match's global
/// index — the DiscoveryRank key phase P2 needs — is known at release
/// time. Thread-safe; a released buffer stays valid until FreeShard
/// reclaims it (or the merger dies), so the executor frees each
/// shard's matches as soon as its last P2 batch retires.
class ShardPrefixMerger {
 public:
  struct ReleasedShard {
    /// Global (serial-order) index of the shard's first match.
    int64_t first_match_index = 0;
    /// The shard's matches, in serial order. Owned by the merger.
    const MatchList* matches = nullptr;
  };

  explicit ShardPrefixMerger(int64_t num_shards);

  struct ReleasedShardEntry {
    int64_t shard = 0;  // pass back to FreeShard when fully consumed
    ReleasedShard released;
  };

  /// Records shard `shard` as complete with its match buffer and
  /// returns every shard this completion releases, in shard order —
  /// empty when an earlier shard is still outstanding. Each shard must
  /// complete exactly once.
  std::vector<ReleasedShardEntry> Complete(int64_t shard, MatchList matches);

  /// Frees a released shard's match buffer. Call only once no consumer
  /// still reads the buffer (the executor refcounts a shard's P2
  /// batches and frees on the last one), so a run holds just the
  /// in-flight window of matches instead of the full materialization.
  void FreeShard(int64_t shard);

  /// Matches released so far (equals the total once all shards
  /// completed). Intended for after-the-fact stats, not coordination.
  int64_t num_released() const;

 private:
  mutable std::mutex mu_;
  std::vector<MatchList> shards_;
  std::vector<bool> complete_;
  int64_t next_unreleased_ = 0;   // first shard not yet released
  int64_t released_matches_ = 0;  // total matches in released shards
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_ENGINE_BATCHING_H_
