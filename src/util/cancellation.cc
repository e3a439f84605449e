#include "util/cancellation.h"

#include <utility>

#include "util/failpoint.h"

namespace flowmotif {

namespace {

/// Deadline clock reads are throttled to one per 64 checks per query
/// (shared counter): check sites are per work unit, so the detection
/// lag is bounded by 64 units while the steady_clock read disappears
/// from the per-unit cost.
constexpr uint64_t kDeadlineCheckMask = 63;

}  // namespace

const char* TerminationCodeToString(TerminationCode code) {
  switch (code) {
    case TerminationCode::kCompleted:
      return "COMPLETED";
    case TerminationCode::kCancelled:
      return "CANCELLED";
    case TerminationCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case TerminationCode::kBudgetExceeded:
      return "BUDGET_EXCEEDED";
    case TerminationCode::kError:
      return "ERROR";
    case TerminationCode::kRejected:
      return "REJECTED";
  }
  return "UNKNOWN";
}

std::string Termination::ToString() const {
  if (complete()) return "completed";
  std::string out = TerminationCodeToString(code);
  if (!stopped_at.empty()) {
    out += " at ";
    out += stopped_at;
  }
  if (!detail.empty()) {
    out += " (";
    out += detail;
    out += ")";
  }
  if (!status.ok()) {
    out += ": ";
    out += status.ToString();
  }
  return out;
}

void CancellationToken::Cancel(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (reason_.empty()) reason_ = reason;
  }
  cancelled_.store(true, std::memory_order_release);
}

std::string CancellationToken::reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reason_;
}

QueryDeadline QueryDeadline::AfterSeconds(double seconds) {
  using Clock = std::chrono::steady_clock;
  QueryDeadline deadline;
  deadline.active_ = true;
  const Clock::time_point now = Clock::now();
  // Compared in ticks, as the conversion below computes them: a count
  // the clock cannot hold past `now` (NaN included) would overflow it,
  // so such a deadline never expires; one at or before now already has.
  const double ticks = std::chrono::duration<double, Clock::period>(
                           std::chrono::duration<double>(seconds))
                           .count();
  const double headroom =
      static_cast<double>((Clock::time_point::max() - now).count());
  if (!(ticks < headroom)) {
    deadline.at_ = Clock::time_point::max();
  } else if (ticks <= 0.0) {
    deadline.at_ = now;
  } else {
    deadline.at_ = now + Clock::duration(static_cast<Clock::rep>(ticks));
  }
  return deadline;
}

QueryControl::QueryControl(const CancellationToken* token,
                           const QueryDeadline& deadline,
                           const WorkBudget& budget)
    : token_(token), deadline_(deadline), budget_(budget) {}

bool QueryControl::CheckAt(const char* site) {
  return CheckImpl(site, /*throttled=*/true);
}

bool QueryControl::CheckAtBoundary(const char* site) {
  return CheckImpl(site, /*throttled=*/false);
}

bool QueryControl::CheckImpl(const char* site, bool throttled) {
  if (ShouldStop()) return true;
#if defined(FLOWMOTIF_FAILPOINTS_ENABLED)
  failpoint::Evaluate(site, this);
  if (ShouldStop()) return true;
#endif
  if (token_ != nullptr && token_->IsCancelled()) {
    RequestStop(TerminationCode::kCancelled, site, Status::OK(),
                token_->reason());
    return true;
  }
  if (deadline_.active()) {
    bool read_clock = !throttled;
    if (throttled) {
      const uint64_t n = check_count_.fetch_add(1, std::memory_order_relaxed);
      read_clock = (n & kDeadlineCheckMask) == 0;
    }
    if (read_clock && deadline_.Expired()) {
      RequestStop(TerminationCode::kDeadlineExceeded, site, Status::OK());
      return true;
    }
  }
  return false;
}

void QueryControl::ChargeWindowElements(int64_t elements, const char* site) {
  const int64_t total =
      window_elements_.fetch_add(elements, std::memory_order_relaxed) +
      elements;
  if (budget_.max_window_elements >= 0 &&
      total > budget_.max_window_elements) {
    RequestStop(TerminationCode::kBudgetExceeded, site, Status::OK(),
                "max_window_elements");
  }
}

void QueryControl::ChargeMemoryBytes(int64_t bytes, const char* site) {
  const int64_t total =
      memory_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (budget_.max_memory_bytes >= 0 && total > budget_.max_memory_bytes) {
    RequestStop(TerminationCode::kBudgetExceeded, site, Status::OK(),
                "max_memory_bytes");
  }
}

void QueryControl::RequestStop(TerminationCode code, const char* site,
                               Status status, const std::string& detail) {
  int expected = 0;
  if (stop_code_.compare_exchange_strong(expected, static_cast<int>(code),
                                         std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(mu_);
    stop_site_ = site;
    stop_detail_ = detail;
    stop_status_ = std::move(status);
  }
}

void QueryControl::MarkTruncated(TerminationCode code, const char* site,
                                 const std::string& detail) {
  bool expected = false;
  if (truncated_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(mu_);
    truncated_code_ = code;
    truncated_site_ = site;
    truncated_detail_ = detail;
  }
}

Termination QueryControl::Finish(int64_t work_completed) const {
  Termination t;
  t.work_completed = work_completed;
  const int code = stop_code_.load(std::memory_order_acquire);
  if (code != 0) {
    t.code = static_cast<TerminationCode>(code);
    std::lock_guard<std::mutex> lock(mu_);
    t.stopped_at = stop_site_;
    t.detail = stop_detail_;
    t.status = stop_status_;
    return t;
  }
  if (truncated_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mu_);
    t.code = truncated_code_;
    t.stopped_at = truncated_site_;
    t.detail = truncated_detail_;
  }
  return t;
}

std::unique_ptr<QueryControl> MakeQueryControl(const CancellationToken* token,
                                               const QueryDeadline& deadline,
                                               const WorkBudget& budget) {
  failpoint::MaybeArmFromEnv();
  if (token == nullptr && !deadline.active() && !budget.active() &&
      !failpoint::AnyArmed()) {
    return nullptr;
  }
  return std::make_unique<QueryControl>(token, deadline, budget);
}

}  // namespace flowmotif
