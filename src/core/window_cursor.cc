#include "core/window_cursor.h"

#include <functional>

#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace flowmotif {

bool MotifHasInteriorNode(const Motif& motif) {
  const auto [f_src, f_dst] = motif.edge(0);
  const auto [l_src, l_dst] = motif.edge(motif.num_edges() - 1);
  for (int node = 0; node < motif.num_nodes(); ++node) {
    if (node != f_src && node != f_dst && node != l_src && node != l_dst) {
      return true;
    }
  }
  return false;
}

void ChargeComputedWindows(QueryControl* control, size_t num_windows,
                           size_t container_bytes) {
  if (control == nullptr) return;
  const int64_t elements = static_cast<int64_t>(num_windows);
  control->ChargeWindowElements(elements, failpoint::kCacheWindows);
  control->ChargeMemoryBytes(
      elements * static_cast<int64_t>(sizeof(Window)) +
          static_cast<int64_t>(container_bytes),
      failpoint::kCacheWindows);
}

SharedWindowCache* ResolveWindowCache(
    SharedWindowCache* injected, const Motif& motif, Timestamp delta,
    std::unique_ptr<SharedWindowCache>* owned) {
  if (injected != nullptr) {
    FLOWMOTIF_CHECK_EQ(injected->delta(), delta)
        << "shared window cache bound to a different delta";
    return injected;
  }
  if (MotifHasInteriorNode(motif)) {
    *owned = std::make_unique<SharedWindowCache>(delta);
    return owned->get();
  }
  // Without an interior node the (first, last) series pin the whole
  // binding, so within one graph a pair never repeats and caching could
  // never hit — pure insert traffic.
  return nullptr;
}

void ResolveMatchSeries(const TimeSeriesGraph& graph, const Motif& motif,
                        MatchRef binding,
                        std::vector<const EdgeSeries*>* series) {
  const int m = motif.num_edges();
  series->resize(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    const auto [src, dst] = motif.edge(i);
    const EdgeSeries* s = graph.FindSeries(binding[static_cast<size_t>(src)],
                                           binding[static_cast<size_t>(dst)]);
    FLOWMOTIF_CHECK(s != nullptr)
        << "binding is not a structural match of " << motif.name();
    (*series)[static_cast<size_t>(i)] = s;
  }
}

void UnionTimeline::Build(const std::vector<const EdgeSeries*>& series,
                          const WindowCursorSet& cursors) {
  const size_t m = series.size();
  times_.clear();
  heads_.assign(cursors.lo_indices().begin(), cursors.lo_indices().end());
  while (true) {
    Timestamp next = 0;
    bool any = false;
    for (size_t k = 0; k < m; ++k) {
      if (heads_[k] >= cursors.hi(k)) continue;
      const Timestamp t = series[k]->time(heads_[k]);
      if (!any || t < next) {
        next = t;
        any = true;
      }
    }
    if (!any) break;
    times_.push_back(next);
    for (size_t k = 0; k < m; ++k) {
      while (heads_[k] < cursors.hi(k) &&
             series[k]->time(heads_[k]) == next) {
        ++heads_[k];
      }
    }
  }
}

void TimelineOffsets::Build(const std::vector<const EdgeSeries*>& series,
                            const WindowCursorSet& cursors,
                            const UnionTimeline& timeline) {
  const size_t m = series.size();
  tau_ = timeline.size();
  lower_.resize(m * tau_);
  upper_.resize(m * tau_);
  for (size_t k = 0; k < m; ++k) {
    const std::vector<Timestamp>& times = series[k]->times();
    const size_t series_end = cursors.hi(k);
    size_t lower = cursors.lo(k);
    size_t upper = cursors.lo(k);
    size_t* lower_row = lower_.data() + k * tau_;
    size_t* upper_row = upper_.data() + k * tau_;
    for (size_t i = 0; i < tau_; ++i) {
      const Timestamp t = timeline[i];
      while (lower < series_end && times[lower] < t) ++lower;
      lower_row[i] = lower;
      if (upper < lower) upper = lower;
      while (upper < series_end && times[upper] <= t) ++upper;
      upper_row[i] = upper;
    }
  }
}

namespace {

/// Smallest power of two >= n (n <= 2^63).
size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

size_t PairHash(const StorageIdentity& first_id,
                const StorageIdentity& last_id) {
  const std::hash<StorageIdentity> hash;
  const size_t h = hash(first_id);
  return h ^ (hash(last_id) + 0x9e3779b9u + (h << 6) + (h >> 2));
}

}  // namespace

struct SharedWindowCache::Node {
  StorageIdentity first_id;
  StorageIdentity last_id;
  std::vector<Window> windows;
  Node* next;
};

/// One entry pool: a fixed open-hashed bucket array of insert-only node
/// chains plus a reservation counter. Shared_ptr-owned by the cache and
/// by the leases of its readers; freed when the last of them drops it.
struct SharedWindowCache::Generation {
  Generation(size_t cap, std::atomic<int64_t>* live_count)
      : max_entries(cap),
        // Load factor <= 1 when full; the bucket array is fixed for the
        // generation's lifetime, which is what keeps reads lock-free.
        buckets(NextPowerOfTwo(cap == 0 ? 1 : cap)),
        live(live_count) {
    for (std::atomic<Node*>& bucket : buckets) {
      bucket.store(nullptr, std::memory_order_relaxed);
    }
    live->fetch_add(1, std::memory_order_relaxed);
  }

  ~Generation() {
    for (std::atomic<Node*>& bucket : buckets) {
      Node* node = bucket.load(std::memory_order_acquire);
      while (node != nullptr) {
        Node* next = node->next;
        delete node;
        node = next;
      }
    }
    live->fetch_sub(1, std::memory_order_relaxed);
  }

  const size_t max_entries;
  std::vector<std::atomic<Node*>> buckets;
  std::atomic<size_t> size{0};
  std::atomic<int64_t>* const live;  // the owning cache's gauge
};

SharedWindowCache::SharedWindowCache(Timestamp delta, size_t max_entries)
    : delta_(delta),
      max_entries_(max_entries),
      cur_(std::make_shared<Generation>(max_entries, &live_generations_)) {
  FLOWMOTIF_CHECK_GE(delta, 0);
}

SharedWindowCache::~SharedWindowCache() = default;

size_t SharedWindowCache::size() const {
  std::lock_guard<std::mutex> lock(gen_mu_);
  size_t total = cur_->size.load(std::memory_order_acquire);
  if (prev_ != nullptr) total += prev_->size.load(std::memory_order_acquire);
  return total;
}

SharedWindowCache::Node* SharedWindowCache::FindIn(
    const Generation& gen, const StorageIdentity& first_id,
    const StorageIdentity& last_id) {
  const std::atomic<Node*>& bucket =
      gen.buckets[PairHash(first_id, last_id) & (gen.buckets.size() - 1)];
  for (Node* node = bucket.load(std::memory_order_acquire); node != nullptr;
       node = node->next) {
    if (node->first_id == first_id && node->last_id == last_id) return node;
  }
  return nullptr;
}

bool SharedWindowCache::TryReserve(Generation* gen) {
  // Reserve a slot before building. The CAS loop (rather than a
  // blind fetch_add with rollback) keeps a generation's size <=
  // max_entries even transiently, and a full generation costs one
  // relaxed load per miss — no contended RMW on the shared counter.
  size_t reserved = gen->size.load(std::memory_order_relaxed);
  while (true) {
    if (reserved >= gen->max_entries) return false;
    if (gen->size.compare_exchange_weak(reserved, reserved + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      return true;
    }
  }
}

const std::vector<Window>& SharedWindowCache::InsertReserved(Generation* gen,
                                                             Node* node) {
  std::atomic<Node*>& bucket =
      gen->buckets[PairHash(node->first_id, node->last_id) &
                   (gen->buckets.size() - 1)];
  // CAS-insert at the bucket head. A racing insert of the same key may
  // have published between the caller's lookup miss and here, so every
  // attempt first scans the chain prefix not yet examined (insert-only
  // means new nodes only ever prepend); on finding the racer we adopt
  // its list, delete ours, and release the reserved slot.
  Node* scanned_until = nullptr;
  Node* expected = bucket.load(std::memory_order_acquire);
  while (true) {
    for (Node* other = expected; other != scanned_until;
         other = other->next) {
      if (other->first_id == node->first_id &&
          other->last_id == node->last_id) {
        delete node;
        gen->size.fetch_sub(1, std::memory_order_acq_rel);
        return other->windows;
      }
    }
    scanned_until = expected;
    node->next = expected;
    if (bucket.compare_exchange_weak(expected, node,
                                     std::memory_order_release,
                                     std::memory_order_acquire)) {
      return node->windows;
    }
  }
}

SharedWindowCache::Reader::Reader(SharedWindowCache* cache, Timestamp delta,
                                  QueryControl* charge)
    : cache_(cache != nullptr && cache->max_entries() > 0 ? cache : nullptr),
      delta_(delta),
      charge_(charge) {
  if (cache != nullptr) {
    FLOWMOTIF_CHECK_EQ(cache->delta(), delta)
        << "window cache reader bound to a different delta";
  }
}

const std::vector<Window>& SharedWindowCache::Reader::Get(
    const EdgeSeries& first, const EdgeSeries& last) {
  if (cache_ != nullptr) return cache_->Lookup(this, first, last);
  ComputeProcessedWindows(first, last, delta_, &own_);
  ChargeComputedWindows(charge_, own_.size(), 0);
  return own_;
}

void SharedWindowCache::Renew(Reader* reader) {
  // Generations dropped here are released after the lock: freeing one
  // deletes up to max_entries lists, and other readers' leases wait on
  // the lock.
  std::shared_ptr<Generation> old_cur = std::move(reader->cur_);
  std::shared_ptr<Generation> old_prev = std::move(reader->prev_);
  std::shared_ptr<Generation> unpublished;
  std::lock_guard<std::mutex> lock(gen_mu_);
  if (old_cur == cur_) {
    // This reader found the newest generation full: rotate. The old
    // previous generation leaves the publication path here; its nodes
    // live on until every reader leasing it moves on.
    unpublished = std::move(prev_);
    prev_ = std::move(cur_);
    cur_ = std::make_shared<Generation>(max_entries_, &live_generations_);
    rotations_.fetch_add(1, std::memory_order_relaxed);
  }
  // Lease the cache's current pair (another reader may already have
  // moved it past the full generation this reader saw).
  reader->cur_ = cur_;
  reader->prev_ = prev_;
}

const std::vector<Window>& SharedWindowCache::Lookup(Reader* reader,
                                                     const EdgeSeries& first,
                                                     const EdgeSeries& last) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  if (reader->cur_ == nullptr) Renew(reader);
  // The key is the timestamp-storage identity, not the series address:
  // a flow-permuted view hits the entry its source series published.
  const StorageIdentity first_id = first.timestamp_identity();
  const StorageIdentity last_id = last.timestamp_identity();
  if (Node* node = FindIn(*reader->cur_, first_id, last_id)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return node->windows;
  }
  if (reader->prev_ != nullptr) {
    if (Node* node = FindIn(*reader->prev_, first_id, last_id)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      // Clock second chance: copy the touched entry into the current
      // generation so it survives the next rotation. Not billed — the
      // windows were charged when first materialized. If the current
      // generation is full the hit is still served from previous (the
      // next miss will rotate anyway).
      if (TryReserve(reader->cur_.get())) {
        return InsertReserved(reader->cur_.get(),
                              new Node{first_id, last_id, node->windows,
                                       nullptr});
      }
      return node->windows;
    }
  }
  // Full: rotate instead of declining, then retry through the renewed
  // lease. Loop, not a single retry — under contention the renewed
  // current generation may already have been filled by other readers,
  // and each Renew either installs a fresh generation or moves the
  // lease to a strictly newer one, so this terminates.
  while (!TryReserve(reader->cur_.get())) Renew(reader);
  Node* node = new Node{first_id, last_id,
                        ComputeProcessedWindows(first, last, delta_),
                        nullptr};
  // Budget accounting happens at materialization, the only point where
  // a query allocates window storage that outlives a match.
  ChargeComputedWindows(reader->charge_, node->windows.size(), sizeof(Node));
  return InsertReserved(reader->cur_.get(), node);
}

}  // namespace flowmotif
