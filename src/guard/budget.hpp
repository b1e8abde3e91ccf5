// RunBudget + RunGuard — wall-clock deadlines for scheduling runs.
//
// A RunBudget describes how long a run may take: a relative timeout, an
// absolute deadline, a CancelToken, or any combination. Scheduler option
// structs carry one (like obs::ObsContext) and nested schedulers inherit
// it with inheritFrom(), so the whole pipeline shares a single clock.
//
// The relative→absolute conversion happens exactly once, at the
// outermost entry point (resolve()): from then on everything compares
// against the same steady_clock time_point, so a timeout of 50 ms means
// 50 ms for the *request*, not 50 ms per nested stage.
//
// RunGuard is the polling side. Hot loops call poll(), which only
// touches the clock every `stride` calls (steady_clock::now() is tens of
// nanoseconds — fine per chunk, too hot per search node); coarse
// boundaries call check() for an immediate answer. Both latch the first
// stop reason, and an inactive guard costs a single branch per call so
// the no-deadline path stays byte-identical to a build without guards.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

#include "guard/cancel.hpp"

namespace paws::guard {

/// Why a guarded run stopped early. kNone means it ran to completion.
enum class StopReason : std::uint8_t {
  kNone = 0,
  kDeadline = 1,
  kCancelled = 2,
};

[[nodiscard]] const char* toString(StopReason reason);

/// Limits for one scheduling run. Default-constructed = unlimited.
struct RunBudget {
  /// Relative wall-clock limit; resolve() turns it into deadlineAt.
  std::optional<std::chrono::milliseconds> timeout;
  /// Absolute deadline. Takes precedence over `timeout` if both are set
  /// and earlier; resolve() keeps the sooner of the two.
  std::optional<std::chrono::steady_clock::time_point> deadlineAt;
  /// Cooperative cancellation; default token never fires.
  CancelToken cancel;

  /// True when any limit is configured (the clean path checks this once).
  [[nodiscard]] bool active() const {
    return timeout.has_value() || deadlineAt.has_value() || cancel.connected();
  }

  /// Pin the relative timeout to an absolute deadline, measured from
  /// `now`. Call once at the outermost scheduler entry; pass the result
  /// to nested stages so they share the clock. Idempotent afterwards.
  [[nodiscard]] RunBudget resolved(
      std::chrono::steady_clock::time_point now =
          std::chrono::steady_clock::now()) const;

  /// Adopt the parent's limits when this budget has none set (mirrors
  /// obs::ObsContext::inheritFrom for nested option structs).
  void inheritFrom(const RunBudget& parent);
};

/// Poll-side view of a resolved RunBudget. Cheap to construct per worker;
/// each worker keeps its own stride counter so polling needs no sharing.
class RunGuard {
 public:
  /// `budget` should already be resolved(); an unresolved relative
  /// timeout is resolved here as a fallback. `stride` is how many poll()
  /// calls elapse between clock reads (1 = every call).
  explicit RunGuard(const RunBudget& budget, std::uint32_t stride = 256);

  /// Inactive guards never stop anything and cost one branch per poll.
  [[nodiscard]] bool active() const { return active_; }

  /// Strided check for hot loops: reads the clock every `stride` calls.
  /// Returns the latched reason (kNone while the run may continue).
  StopReason poll() {
    if (!active_ || reason_ != StopReason::kNone) return reason_;
    if (++sinceCheck_ < stride_) return StopReason::kNone;
    sinceCheck_ = 0;
    return check();
  }

  /// Immediate check for coarse boundaries (pass/trial/chunk edges).
  StopReason check();

  /// The latched stop reason; never reverts to kNone once set.
  [[nodiscard]] StopReason reason() const { return reason_; }

 private:
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  CancelToken cancel_;
  std::uint32_t stride_ = 256;
  std::uint32_t sinceCheck_ = 0;
  bool active_ = false;
  StopReason reason_ = StopReason::kNone;
};

}  // namespace paws::guard
