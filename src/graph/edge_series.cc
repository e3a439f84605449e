#include "graph/edge_series.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace flowmotif {

namespace {

/// All default-constructed series share one empty timestamp array. The
/// identity collision is benign: an identity only promises identical
/// timestamps, and every empty series has the same (none).
const std::shared_ptr<const std::vector<Timestamp>>& EmptyTimes() {
  static const std::shared_ptr<const std::vector<Timestamp>>* const kEmpty =
      new std::shared_ptr<const std::vector<Timestamp>>(
          std::make_shared<const std::vector<Timestamp>>());
  return *kEmpty;
}

/// They share one empty flow block too: no flows, one prefix sum of 0.
const std::shared_ptr<const double[]>& EmptyFlows() {
  static const std::shared_ptr<const double[]>* const kEmpty =
      new std::shared_ptr<const double[]>(new double[1]{0.0});
  return *kEmpty;
}

/// An uninitialized flow block for `n` elements: room for n flows
/// followed by n + 1 prefix sums.
std::shared_ptr<double[]> NewFlowBlock(size_t n) {
  return std::shared_ptr<double[]>(new double[2 * n + 1]);
}

}  // namespace

EdgeSeries::EdgeSeries() : times_(EmptyTimes()) {
  SyncTimesView();
  AdoptFlows(EmptyFlows());
}

EdgeSeries::EdgeSeries(std::vector<Interaction> interactions, EpochId epoch)
    : storage_epoch_(epoch) {
  std::sort(interactions.begin(), interactions.end());
  const size_t n = interactions.size();
  std::vector<Timestamp> times;
  times.reserve(n);
  std::shared_ptr<double[]> block = NewFlowBlock(n);
  for (size_t i = 0; i < n; ++i) {
    FLOWMOTIF_CHECK_GT(interactions[i].f, 0.0) << "flows must be positive";
    times.push_back(interactions[i].t);
    block[i] = interactions[i].f;
  }
  FillPrefix(block.get(), n);
  times_ = std::make_shared<const std::vector<Timestamp>>(std::move(times));
  SyncTimesView();
  AdoptFlows(std::move(block));
}

EdgeSeries EdgeSeries::WithFlows(const std::vector<Flow>& new_flows) const {
  EdgeSeries view = *this;  // shared timestamps, same identity
  view.ReplaceFlows(new_flows);
  return view;
}

EdgeSeries EdgeSeries::DeepCopy() const {
  EdgeSeries copy = *this;
  copy.times_ = std::make_shared<const std::vector<Timestamp>>(*times_);
  copy.SyncTimesView();
  std::shared_ptr<double[]> block = NewFlowBlock(num_elements_);
  std::copy(flows_data_, flows_data_ + 2 * num_elements_ + 1,
            block.get());  // flows and prefix sums alike
  copy.AdoptFlows(std::move(block));
  return copy;
}

EdgeSeries EdgeSeries::WithAppended(std::vector<Interaction> tail,
                                    EpochId epoch) const {
  // Concatenate and hand to the sorting constructor: byte identity with
  // a from-scratch build of the union holds by construction. The input
  // is two sorted runs, which std::sort handles near-linearly, so the
  // seal cost of a dirty series stays close to one merge pass.
  std::vector<Interaction> all;
  all.reserve(size() + tail.size());
  for (size_t i = 0; i < num_elements_; ++i) all.push_back(at(i));
  all.insert(all.end(), tail.begin(), tail.end());
  return EdgeSeries(std::move(all), epoch);
}

void EdgeSeries::FillPrefix(double* block, size_t n) {
  double* const prefix = block + n;
  prefix[0] = 0.0;
  for (size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + block[i];
}

size_t EdgeSeries::LowerBound(Timestamp t) const {
  return static_cast<size_t>(
      std::lower_bound(times_data_, times_data_ + num_elements_, t) -
      times_data_);
}

size_t EdgeSeries::UpperBound(Timestamp t) const {
  return static_cast<size_t>(
      std::upper_bound(times_data_, times_data_ + num_elements_, t) -
      times_data_);
}

size_t EdgeSeries::AdvanceLowerBound(size_t from, Timestamp t) const {
  const Timestamp* const times = times_data_;
  const size_t n = num_elements_;
  if (from >= n || times[from] >= t) return from;
  // Gallop: double the step while the probe is still < t, keeping the
  // invariant times[low] < t, then binary-search the bracket. Cost is
  // O(log gap), so tight window-to-window slides stay ~constant and a
  // first window deep into the series costs no more than LowerBound.
  size_t low = from;
  size_t step = 1;
  while (low + step < n && times[low + step] < t) {
    low += step;
    step <<= 1;
  }
  const size_t high = std::min(n, low + step);
  return static_cast<size_t>(
      std::lower_bound(times + low + 1, times + high, t) - times);
}

size_t EdgeSeries::AdvanceUpperBound(size_t from, Timestamp t) const {
  const Timestamp* const times = times_data_;
  const size_t n = num_elements_;
  if (from >= n || times[from] > t) return from;
  size_t low = from;  // invariant: times[low] <= t
  size_t step = 1;
  while (low + step < n && times[low + step] <= t) {
    low += step;
    step <<= 1;
  }
  const size_t high = std::min(n, low + step);
  return static_cast<size_t>(
      std::upper_bound(times + low + 1, times + high, t) - times);
}

Flow EdgeSeries::FlowInOpenClosed(Timestamp lo, Timestamp hi) const {
  if (lo >= hi) return 0.0;
  size_t first = UpperBound(lo);
  size_t last = UpperBound(hi);
  if (first >= last) return 0.0;
  return prefix_data_[last] - prefix_data_[first];
}

Flow EdgeSeries::FlowInClosed(Timestamp lo, Timestamp hi) const {
  if (lo > hi) return 0.0;
  size_t first = LowerBound(lo);
  size_t last = UpperBound(hi);
  if (first >= last) return 0.0;
  return prefix_data_[last] - prefix_data_[first];
}

bool EdgeSeries::HasElementInOpenClosed(Timestamp lo, Timestamp hi) const {
  if (lo >= hi) return false;
  size_t first = UpperBound(lo);
  return first < size() && times_data_[first] <= hi;
}

void EdgeSeries::ReplaceFlows(const std::vector<Flow>& new_flows) {
  FLOWMOTIF_CHECK_EQ(new_flows.size(), num_elements_);
  std::shared_ptr<double[]> block = NewFlowBlock(num_elements_);
  for (size_t i = 0; i < num_elements_; ++i) {
    FLOWMOTIF_CHECK_GT(new_flows[i], 0.0);
    block[i] = new_flows[i];
  }
  FillPrefix(block.get(), num_elements_);
  AdoptFlows(std::move(block));
}

}  // namespace flowmotif
