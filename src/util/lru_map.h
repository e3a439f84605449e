#ifndef FLOWMOTIF_UTIL_LRU_MAP_H_
#define FLOWMOTIF_UTIL_LRU_MAP_H_

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace flowmotif {

/// A hash map that keeps its entries in recency order, so a bounded
/// cache can evict the least recently used one. Holds no bound itself:
/// the owner decides what "full" means (an entry count, a byte total)
/// and pops the oldest entries until its bound holds. The serving
/// layer's completed-result and match-list caches share it. Not
/// thread-safe; the owner locks.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruMap {
 public:
  /// The value stored under `key`, now the most recently used entry;
  /// null when absent. The pointer is valid until the entry is removed.
  Value* Find(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->second;
  }

  /// Adds `value` under `key` as the most recently used entry. An
  /// existing entry is kept as it was and only marked used; returns
  /// whether `value` was stored.
  bool Insert(Key key, Value value) {
    if (Find(key) != nullptr) return false;
    entries_.emplace_front(std::move(key), std::move(value));
    index_.emplace(entries_.front().first, entries_.begin());
    return true;
  }

  /// Removes the least recently used entry and returns its value.
  /// Requires !empty().
  Value PopOldest() {
    FLOWMOTIF_CHECK(!entries_.empty());
    Value value = std::move(entries_.back().second);
    index_.erase(entries_.back().first);
    entries_.pop_back();
    return value;
  }

  /// Removes every entry for which `drop(key, value)` holds, appending
  /// the removed values to `removed` so the caller can destroy them
  /// after releasing its locks.
  template <typename Pred>
  void RemoveIf(const Pred& drop, std::vector<Value>* removed) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (!drop(it->first, it->second)) {
        ++it;
        continue;
      }
      removed->push_back(std::move(it->second));
      index_.erase(it->first);
      it = entries_.erase(it);
    }
  }

  /// Moves every value into `removed` and empties the map.
  void Clear(std::vector<Value>* removed) {
    RemoveIf([](const Key&, const Value&) { return true; }, removed);
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  using Entries = std::list<std::pair<Key, Value>>;

  Entries entries_;  // most recently used first
  std::unordered_map<Key, typename Entries::iterator, Hash> index_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_UTIL_LRU_MAP_H_
