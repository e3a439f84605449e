#include "engine/match_list_cache.h"

#include <functional>
#include <utility>

namespace flowmotif {

size_t MatchListCache::KeyHash::operator()(const Key& key) const {
  const size_t h = std::hash<std::string>()(key.motif);
  return h ^ (std::hash<StorageIdentity>()(key.topology) + 0x9e3779b9u +
              (h << 6) + (h >> 2));
}

MatchListCache::MatchListCache(StorageIdentity live_topology,
                               size_t max_bytes)
    : max_bytes_(max_bytes), live_(live_topology) {}

std::shared_ptr<const MatchList> MatchListCache::Find(
    const Motif& motif, StorageIdentity topology) {
  const Key key{motif.PathString(), topology};
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  const List* list = entries_.Find(key);
  if (list == nullptr) return nullptr;
  ++hits_;
  return *list;
}

void MatchListCache::Insert(const Motif& motif, StorageIdentity topology,
                            std::shared_ptr<const MatchList> list) {
  const size_t size = list->bytes();
  Key key{motif.PathString(), topology};
  // Declared before the lock: evicted lists are freed after it.
  std::vector<List> evicted;
  std::lock_guard<std::mutex> lock(mu_);
  if (topology != live_ || size > max_bytes_) return;
  if (!entries_.Insert(std::move(key), std::move(list))) return;
  bytes_ += size;
  // The new entry is the most recent, so eviction reaches it only when
  // it alone exceeds the bound, which was ruled out above.
  while (bytes_ > max_bytes_) {
    evicted.push_back(entries_.PopOldest());
    bytes_ -= evicted.back()->bytes();
  }
}

std::vector<std::shared_ptr<const MatchList>> MatchListCache::SetLiveTopology(
    StorageIdentity topology) {
  std::vector<List> removed;
  std::lock_guard<std::mutex> lock(mu_);
  live_ = topology;
  entries_.RemoveIf(
      [topology](const Key& key, const List&) {
        return key.topology != topology;
      },
      &removed);
  for (const List& list : removed) bytes_ -= list->bytes();
  return removed;
}

int64_t MatchListCache::lookups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lookups_;
}

int64_t MatchListCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

size_t MatchListCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace flowmotif
