#ifndef FLOWMOTIF_CORE_MATCH_LIST_H_
#define FLOWMOTIF_CORE_MATCH_LIST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/motif.h"
#include "graph/types.h"
#include "util/logging.h"

namespace flowmotif {

/// A non-owning view of one structural match: element i is the graph
/// vertex motif node i maps to. Every per-match evaluator (the
/// enumerator, the counter, the DP searcher, ResolveMatchSeries) reads
/// its match through one, so a row of a MatchList and an owned
/// MatchBinding — which converts implicitly — take the same code path.
/// Valid only while the viewed storage is.
class MatchRef {
 public:
  MatchRef(const VertexId* data, size_t size) : data_(data), size_(size) {}
  // Implicit by design: callers that hold a MatchBinding pass it as is.
  MatchRef(const MatchBinding& binding)  // NOLINT(google-explicit-constructor)
      : data_(binding.data()), size_(binding.size()) {}

  VertexId operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }
  const VertexId* begin() const { return data_; }
  const VertexId* end() const { return data_ + size_; }

  /// An owning copy, for the few places that keep a match past the
  /// view's lifetime (MotifInstance::binding, the DP's best binding).
  MatchBinding ToBinding() const { return MatchBinding(begin(), end()); }

 private:
  const VertexId* data_;
  size_t size_;
};

/// Structural matches stored flat: one VertexId array in which match i
/// occupies the `stride` entries starting at i * stride, stride being
/// the motif's node count. Phase P1 appends to one of these with no
/// allocation per match, and it is the engine's one match-list type —
/// the executor's P1 shards, its existing-list input, RunSweep's shared
/// list and the service's cached lists (DESIGN.md Sec. 5 and 11).
/// About 4 bytes per vertex instead of a heap block per match.
class MatchList {
 public:
  MatchList() = default;
  explicit MatchList(int stride) : stride_(static_cast<size_t>(stride)) {
    FLOWMOTIF_CHECK_GT(stride, 0);
  }

  /// The flat copy of `bindings`, each of which must hold `stride`
  /// vertices.
  static MatchList FromBindings(const std::vector<MatchBinding>& bindings,
                                int stride) {
    MatchList list(stride);
    list.vertices_.reserve(bindings.size() * list.stride_);
    for (const MatchBinding& binding : bindings) list.Append(binding);
    return list;
  }

  int stride() const { return static_cast<int>(stride_); }
  int64_t size() const {
    return stride_ == 0 ? 0 : static_cast<int64_t>(vertices_.size() / stride_);
  }
  bool empty() const { return vertices_.empty(); }

  MatchRef operator[](int64_t i) const {
    return MatchRef(vertices_.data() + static_cast<size_t>(i) * stride_,
                    stride_);
  }

  void Append(MatchRef match) {
    FLOWMOTIF_CHECK_EQ(match.size(), stride_);
    vertices_.insert(vertices_.end(), match.begin(), match.end());
  }

  /// Appends every match of `other`, which must have the same stride.
  void Append(const MatchList& other) {
    FLOWMOTIF_CHECK(other.empty() || other.stride_ == stride_);
    vertices_.insert(vertices_.end(), other.vertices_.begin(),
                     other.vertices_.end());
  }

  void Reserve(int64_t matches) {
    vertices_.reserve(static_cast<size_t>(matches) * stride_);
  }

  /// Drops spare capacity, so bytes() is what the list needs.
  void ShrinkToFit() { vertices_.shrink_to_fit(); }

  /// Heap bytes held, spare capacity included.
  size_t bytes() const { return vertices_.capacity() * sizeof(VertexId); }

 private:
  size_t stride_ = 0;
  std::vector<VertexId> vertices_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_MATCH_LIST_H_
