#ifndef FLOWMOTIF_UTIL_CANCELLATION_H_
#define FLOWMOTIF_UTIL_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "util/status.h"

namespace flowmotif {

/// Query lifecycle control: cooperative cancellation, deadlines, and
/// resource budgets for every engine execution path (DESIGN.md
/// Sec. 10). A query that is asked to stop does so at the next
/// cancellation point — a named site checked at cheap, bounded
/// intervals (per P1 work unit, per P2 batch, per DP match, per
/// ensemble task, per sweep cell, per stream revisit) — and reports
/// how it ended through a Termination record with well-defined partial
/// results: whatever the canonically-ordered prefix of completed work
/// units produced, never a torn merge.

/// How a query run ended.
enum class TerminationCode {
  kCompleted = 0,      // ran to the end; results are total
  kCancelled,          // CancellationToken fired
  kDeadlineExceeded,   // QueryDeadline expired
  kBudgetExceeded,     // a WorkBudget dimension was exhausted
  kError,              // a Status error surfaced (pool task, injection)
  kRejected,           // never admitted (serve/: admission queue full)
};

const char* TerminationCodeToString(TerminationCode code);

/// The lifecycle outcome attached to every result struct
/// (QueryResult, SweepResult, MotifReport, stream EpochStats).
struct Termination {
  TerminationCode code = TerminationCode::kCompleted;

  /// Cancellation-point site name where the stop was detected
  /// (util/failpoint.h names); empty when the run completed.
  std::string stopped_at;

  /// Extra context: the token's cancel reason, or the exhausted budget
  /// dimension. Empty when the run completed.
  std::string detail;

  /// Non-OK for kError (a pool task threw, or a failpoint injected an
  /// error Status); OK otherwise.
  Status status;

  /// Length of the canonical work prefix the partial result covers.
  /// Per-mode meaning: structural matches processed (Run/RunOnMatches),
  /// grid cells completed (RunSweep), ensemble tasks completed
  /// (kSignificance), match revisits applied (SealEpoch). -1 when the
  /// path does not track a prefix.
  int64_t work_completed = -1;

  bool complete() const { return code == TerminationCode::kCompleted; }

  /// "completed" or "<code> at <site> (<detail>)".
  std::string ToString() const;
};

/// A shared cancel flag. The owner keeps the token alive for the
/// duration of the query and calls Cancel() from any thread; queries
/// observe it through QueryOptions::cancel_token (a non-owning
/// pointer — queries are synchronous, so the caller's token outlives
/// the run it cancels).
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Requests cancellation. Idempotent; the first reason wins.
  /// Thread-safe.
  void Cancel(const std::string& reason = "cancelled");

  bool IsCancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// The first Cancel() reason; empty while not cancelled.
  std::string reason() const;

 private:
  std::atomic<bool> cancelled_{false};
  mutable std::mutex mu_;
  std::string reason_;
};

/// A wall-clock deadline. Default-constructed = no deadline.
class QueryDeadline {
 public:
  QueryDeadline() = default;

  /// A deadline `seconds` from now. One past the clock's last tick
  /// (about 292 years of steady_clock nanoseconds) never expires; one
  /// at or before now already has.
  static QueryDeadline AfterSeconds(double seconds);
  static QueryDeadline AfterMillis(int64_t millis) {
    return AfterSeconds(static_cast<double>(millis) * 1e-3);
  }

  bool active() const { return active_; }

  /// False when inactive. Reads the steady clock — callers throttle.
  bool Expired() const {
    return active_ && std::chrono::steady_clock::now() >= at_;
  }

 private:
  bool active_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// Resource budget for one query. -1 = unlimited. All dimensions are
/// soft caps checked at work-unit granularity: a run may overshoot by
/// up to one unit (or one in-flight parallel batch) before stopping.
struct WorkBudget {
  /// Maximum structural matches phase P1 enumerates. The match list is
  /// truncated at a work-unit boundary and phase P2 still runs over the
  /// truncated prefix, so the result is exact over the first
  /// `work_completed` matches (termination kBudgetExceeded).
  int64_t max_matches = -1;

  /// Maximum window-list elements the query materializes. Charged
  /// uniformly at site "cache.windows" for every processed-window list
  /// a match brings into existence — published into a shared cache or
  /// computed into a reader's own buffer — so the cap holds for every
  /// motif shape (core/window_cursor.h, SharedWindowCache::Reader).
  /// Cache *hits* are not re-charged.
  int64_t max_window_elements = -1;

  /// Soft memory cap in bytes, charged for window-list storage at the
  /// same uniform site as max_window_elements.
  int64_t max_memory_bytes = -1;

  bool active() const {
    return max_matches >= 0 || max_window_elements >= 0 ||
           max_memory_bytes >= 0;
  }
};

/// Per-query aggregation of token + deadline + budget, created by the
/// engine when any of them (or an armed failpoint) is active and
/// threaded as a nullable pointer through every execution path — the
/// default path carries a nullptr and pays one branch per check site.
///
/// Thread-safe: checks and charges are called concurrently from every
/// worker. The first stop request wins; later ones are no-ops, so the
/// recorded (code, site) pair is the stop that actually happened.
class QueryControl {
 public:
  QueryControl(const CancellationToken* token, const QueryDeadline& deadline,
               const WorkBudget& budget);

  /// True once any stop was requested (relaxed load — the per-match
  /// fast path).
  bool ShouldStop() const {
    return stop_code_.load(std::memory_order_relaxed) != 0;
  }

  /// Full cooperative check at a named site: evaluates armed
  /// failpoints, the cancel token, and (throttled) the deadline clock.
  /// Returns true when the query must stop.
  bool CheckAt(const char* site);

  /// CheckAt with an *unthrottled* deadline read. Use at batch
  /// boundaries ("p2.batch", "sig.task"): the per-match sites inside a
  /// batch stay throttled — the clock read must not enter the per-match
  /// cost — but a batch of dense matches can burn through a whole
  /// 64-check throttle window, so the boundary reads the clock
  /// unconditionally and deadline overshoot is bounded by one batch's
  /// matches plus whatever the throttle admits, never a multiple of it.
  bool CheckAtBoundary(const char* site);

  /// Budget charges from the shared window cache. Thread-safe; the
  /// first charge that crosses a limit requests kBudgetExceeded.
  void ChargeWindowElements(int64_t elements, const char* site);
  void ChargeMemoryBytes(int64_t bytes, const char* site);

  /// Requests a hard stop (first request wins). Every later CheckAt /
  /// ShouldStop returns true.
  void RequestStop(TerminationCode code, const char* site, Status status,
                   const std::string& detail = std::string());

  /// Records a soft outcome that does NOT stop the query: the run
  /// continues (e.g. phase P2 over a budget-truncated P1 prefix) but
  /// Finish() reports `code` unless a hard stop happened. First mark
  /// wins.
  void MarkTruncated(TerminationCode code, const char* site,
                     const std::string& detail = std::string());

  const WorkBudget& budget() const { return budget_; }

  /// Builds the Termination record. Call after all workers drained.
  Termination Finish(int64_t work_completed = -1) const;

 private:
  /// Shared body of CheckAt / CheckAtBoundary; `throttled` selects
  /// whether the deadline clock read goes through the 1-in-64 throttle.
  bool CheckImpl(const char* site, bool throttled);

  const CancellationToken* token_;  // may be null
  const QueryDeadline deadline_;
  const WorkBudget budget_;

  std::atomic<int> stop_code_{0};       // 0 = running, else TerminationCode
  std::atomic<bool> truncated_{false};  // soft outcome recorded
  std::atomic<uint64_t> check_count_{0};
  std::atomic<int64_t> window_elements_{0};
  std::atomic<int64_t> memory_bytes_{0};

  mutable std::mutex mu_;  // guards the stop/truncation details below
  std::string stop_site_;
  std::string stop_detail_;
  Status stop_status_;
  TerminationCode truncated_code_ = TerminationCode::kCompleted;
  std::string truncated_site_;
  std::string truncated_detail_;
};

/// Engine factory: a control when any lifecycle feature is active —
/// token present, deadline set, budget set, or any failpoint armed
/// (util/failpoint.h) — else nullptr, keeping the default path free of
/// per-work-unit bookkeeping beyond a null check.
std::unique_ptr<QueryControl> MakeQueryControl(const CancellationToken* token,
                                               const QueryDeadline& deadline,
                                               const WorkBudget& budget);

}  // namespace flowmotif

#endif  // FLOWMOTIF_UTIL_CANCELLATION_H_
