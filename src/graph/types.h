#ifndef FLOWMOTIF_GRAPH_TYPES_H_
#define FLOWMOTIF_GRAPH_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>

namespace flowmotif {

/// Vertex identifier. Vertices of a graph are dense: 0 .. num_vertices-1.
using VertexId = int32_t;

/// Interaction timestamp. The paper's time domain is continuous; we use
/// 64-bit integer ticks (e.g. seconds) for exact, platform-independent
/// comparisons. Duration constraints (delta) use the same unit.
using Timestamp = int64_t;

/// Flow transferred by one interaction (money, messages, passengers, ...).
/// Always positive.
using Flow = double;

/// Epoch counter of an append-friendly graph (graph/epoch_log.h): epoch 0
/// is the seed snapshot, each SealEpoch publishes the next.
using EpochId = uint32_t;

/// Identity of one piece of immutable shared storage (a timestamp array,
/// a CSR index): the storage address *stamped with the epoch at which the
/// storage was created*. Equal identities guarantee identical contents —
/// a series and its flow-permutation views share one identity, and every
/// timestamp-derived artifact (window lists, skeleton traces) may be
/// cached under it.
///
/// The epoch stamp is what makes the identity safe across an appending
/// stream: when an epoch seal rewrites a dirty series, its old storage
/// may be freed and the allocator may later reuse the address. A bare
/// pointer key could then alias a stale cache entry onto unrelated new
/// storage (ABA); the (storage, epoch) pair cannot, because the reused
/// address carries a strictly newer creation epoch. Static graphs all
/// carry epoch 0, where the pair degenerates to the PR 5 pointer key.
struct StorageIdentity {
  const void* storage = nullptr;
  EpochId epoch = 0;

  friend bool operator==(const StorageIdentity& a, const StorageIdentity& b) {
    return a.storage == b.storage && a.epoch == b.epoch;
  }
  friend bool operator!=(const StorageIdentity& a, const StorageIdentity& b) {
    return !(a == b);
  }
};

inline std::ostream& operator<<(std::ostream& os, const StorageIdentity& id) {
  return os << "{" << id.storage << "@e" << id.epoch << "}";
}

/// One timestamped flow transfer on an edge: the (t, f) element of the
/// paper (Sec. 3).
struct Interaction {
  Timestamp t = 0;
  Flow f = 0.0;

  friend bool operator==(const Interaction& a, const Interaction& b) {
    return a.t == b.t && a.f == b.f;
  }
  /// Orders by time, breaking ties by flow so sorting is deterministic.
  friend bool operator<(const Interaction& a, const Interaction& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.f < b.f;
  }
};

inline std::ostream& operator<<(std::ostream& os, const Interaction& x) {
  return os << "(" << x.t << "," << x.f << ")";
}

}  // namespace flowmotif

namespace std {

/// Hash of a StorageIdentity, for the window caches and the serving
/// layer's live-identity sets keyed on one.
template <>
struct hash<flowmotif::StorageIdentity> {
  size_t operator()(const flowmotif::StorageIdentity& id) const noexcept {
    const size_t h = hash<const void*>()(id.storage);
    return h ^ (hash<size_t>()(id.epoch) + 0x9e3779b9u + (h << 6) + (h >> 2));
  }
};

}  // namespace std

#endif  // FLOWMOTIF_GRAPH_TYPES_H_
