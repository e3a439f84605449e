#ifndef FLOWMOTIF_UTIL_FAILPOINT_H_
#define FLOWMOTIF_UTIL_FAILPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace flowmotif {

class QueryControl;

/// Deterministic fault injection at the engine's cancellation points
/// (DESIGN.md Sec. 10). Every cooperative check site doubles as a
/// failpoint: tests arm a site with an action — inject cancellation,
/// deadline expiry, budget exhaustion, a forced error Status, or
/// latency — and the next QueryControl::CheckAt at that site triggers
/// it, which is how fault_injection_test drives every termination path
/// through every query mode without timing races.
///
/// Compiled behind the FLOWMOTIF_FAILPOINTS CMake option (default ON,
/// defines FLOWMOTIF_FAILPOINTS_ENABLED). When compiled out, CheckAt
/// never consults the registry; Arm() still records state so callers
/// need no #ifdefs, but nothing triggers — tests gate on
/// kFailpointsCompiledIn. When compiled in but nothing is armed, the
/// cost is one relaxed atomic load per check site.
namespace failpoint {

#if defined(FLOWMOTIF_FAILPOINTS_ENABLED)
inline constexpr bool kFailpointsCompiledIn = true;
#else
inline constexpr bool kFailpointsCompiledIn = false;
#endif

/// Canonical site names — the cancellation-point inventory. One name
/// per cooperative check location; QueryControl::CheckAt passes these,
/// and Termination::stopped_at reports them.
inline constexpr char kEngineStart[] = "engine.start";    // before any work
inline constexpr char kP1Unit[] = "p1.unit";              // per P1 work unit
inline constexpr char kP2Batch[] = "p2.batch";            // per P2 match batch
inline constexpr char kDpMatch[] = "dp.match";            // per DP match (kTop1)
inline constexpr char kSigTask[] = "sig.task";            // per ensemble task
inline constexpr char kSweepRecord[] = "sweep.record";    // per recorded match
inline constexpr char kSweepCell[] = "sweep.cell";        // per grid cell
inline constexpr char kStreamRevisit[] = "stream.revisit";  // per seal revisit
inline constexpr char kCacheWindows[] = "cache.windows";  // per window list
inline constexpr char kServeAdmit[] = "serve.admit";      // per Submit admission

/// Every registered site name, for tests that iterate the inventory.
const std::vector<std::string>& AllSites();

enum class Action {
  kCancel,    // inject kCancelled
  kDeadline,  // inject kDeadlineExceeded
  kBudget,    // inject kBudgetExceeded
  kError,     // inject kError with an Internal Status
  kSleep,     // inject latency (scheduling perturbation), no stop
};

struct Config {
  Action action = Action::kCancel;
  /// Evaluations to let pass before triggering: the one-shot actions
  /// fire on exactly the (hits_before_trigger + 1)-th evaluation since
  /// arming; kSleep fires on every (hits_before_trigger + 1)-th
  /// evaluation (periodic).
  int64_t hits_before_trigger = 0;
  /// kSleep: injected latency per trigger.
  int64_t sleep_micros = 0;
};

/// Arms `site` (must be a registered name; unknown names are ignored).
/// Re-arming resets the hit counter. Thread-safe.
void Arm(const std::string& site, const Config& config);
void Disarm(const std::string& site);
void DisarmAll();

/// True when any site is armed (one relaxed load).
bool AnyArmed();

/// Evaluations of `site` since it was last armed (0 when not armed).
int64_t HitCount(const std::string& site);

/// Called from QueryControl::CheckAt. No-op unless the site is armed;
/// one-shot actions call control->RequestStop once.
void Evaluate(const char* site, QueryControl* control);

/// Environment-driven arming for randomized smoke runs (CI): when
/// FLOWMOTIF_FAILPOINT_SLEEP_US=N is set, every site is armed with a
/// periodic kSleep(N us, every 64th hit) — pure scheduling
/// perturbation, so the tier-1 suite must still pass byte-identical
/// under it. Parsed once per process; later calls are free.
void MaybeArmFromEnv();

}  // namespace failpoint
}  // namespace flowmotif

#endif  // FLOWMOTIF_UTIL_FAILPOINT_H_
