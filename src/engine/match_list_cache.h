#ifndef FLOWMOTIF_ENGINE_MATCH_LIST_CACHE_H_
#define FLOWMOTIF_ENGINE_MATCH_LIST_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/match_list.h"
#include "core/motif.h"
#include "graph/types.h"
#include "util/lru_map.h"

namespace flowmotif {

/// Complete phase-P1 match lists shared across queries (DESIGN.md
/// Sec. 11). A structural match list depends only on the motif and the
/// graph's topology — never on delta, phi or flows — so a list found by
/// one query answers P1 for every later query of that motif on the same
/// topology. Keyed by the motif's PathString() and the graph's
/// topology_identity(); the value is the immutable flat list, shared
/// with the runs reading it.
///
/// Bounded in bytes: an insert evicts least recently used entries until
/// the total fits, and a list larger than the bound is not kept. Only
/// lists of the live topology are kept — the owner moves that forward
/// with SetLiveTopology — so a run that finishes on a snapshot already
/// replaced cannot publish into the cache. Keys are unique only among
/// the snapshots of one EpochLog (StorageIdentity's epoch stamp), so
/// one cache serves one log.
///
/// Thread-safe. The engine reads it through QueryOptions::match_list_cache.
class MatchListCache {
 public:
  MatchListCache(StorageIdentity live_topology, size_t max_bytes);

  MatchListCache(const MatchListCache&) = delete;
  MatchListCache& operator=(const MatchListCache&) = delete;

  /// The list of `motif` on `topology`, now the most recently used
  /// entry; null on a miss. Counts one lookup, and one hit when found.
  std::shared_ptr<const MatchList> Find(const Motif& motif,
                                        StorageIdentity topology);

  /// Publishes the complete match list of `motif` on `topology`. Kept
  /// only when `topology` is live and the list fits the bound; an entry
  /// already present stays. Evicted lists are released after the lock.
  void Insert(const Motif& motif, StorageIdentity topology,
              std::shared_ptr<const MatchList> list);

  /// Makes `topology` the live one and removes every entry of another.
  /// Returns the removed lists, so a caller holding its own lock can
  /// release them after unlocking it.
  std::vector<std::shared_ptr<const MatchList>> SetLiveTopology(
      StorageIdentity topology);

  int64_t lookups() const;
  int64_t hits() const;
  /// Bytes of the lists held now; never above max_bytes().
  size_t bytes() const;
  size_t max_bytes() const { return max_bytes_; }

 private:
  struct Key {
    std::string motif;
    StorageIdentity topology;

    friend bool operator==(const Key& a, const Key& b) {
      return a.topology == b.topology && a.motif == b.motif;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  using List = std::shared_ptr<const MatchList>;

  const size_t max_bytes_;
  mutable std::mutex mu_;
  StorageIdentity live_;
  LruMap<Key, List, KeyHash> entries_;
  size_t bytes_ = 0;
  int64_t lookups_ = 0;
  int64_t hits_ = 0;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_ENGINE_MATCH_LIST_CACHE_H_
