// Fault taxonomy and scripted fault plans.
//
// The paper's mission-critical claim is only credible if the scheduler
// stack survives *degraded* missions, so this subsystem models the four
// ways the rover environment betrays a static plan:
//
//   * task overruns      — a motor stalls, a sensor retries internally:
//                          the task holds its resource (and power) longer
//                          than its d(v);
//   * task failures      — an execution completes without producing its
//                          result and must be retried, shed, or declared
//                          fatal;
//   * solar transients   — cloud dropouts and dust-storm windows scale the
//                          free solar level over a mission-time window;
//   * battery derating   — aging or cold snaps cut the battery's usable
//                          capacity and/or its maximum output at an
//                          instant.
//
// A `FaultPlan` is the fully resolved, scripted list of faults for ONE
// mission: tests write plans by hand (exact replay), campaigns instantiate
// them from a `FaultModel` (model.hpp) with per-mission SplitMix64 streams.
// Either way the plan is plain data — injection is deterministic, and a
// mission replayed from the same plan produces an identical event trace.
//
// Task faults are addressed by task *name*, not TaskId: the runtime
// executor switches between per-case Problems whose ids differ, while the
// names ("drive1", "heat_wheel2") are stable across the case ladder.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/interval.hpp"
#include "base/time.hpp"
#include "base/units.hpp"
#include "power/sources.hpp"

namespace paws::fault {

enum class FaultKind : std::uint8_t {
  kTaskOverrun,    ///< d'(v) = d(v) * scalePct/100 + extra
  kTaskFailure,    ///< the next `failures` attempts complete but fail
  kSolarTransient, ///< solar level scaled to solarPct over `window`
  kBatteryDerate,  ///< capacity/output scaled to *Pct at time `at`
};

/// One scripted fault. Only the fields of its kind are meaningful; the
/// named constructors on FaultPlan are the intended way to build one.
struct Fault {
  FaultKind kind = FaultKind::kTaskOverrun;

  // --- task faults (kTaskOverrun, kTaskFailure) ---
  std::string task;             ///< target task name
  std::uint64_t iteration = 0;  ///< executor iteration index it strikes
  std::uint32_t scalePct = 100; ///< overrun: duration scale, percent
  Duration extra;               ///< overrun: additive slip, ticks
  std::uint32_t failures = 1;   ///< failure: consecutive failing attempts

  // --- solar transients (kSolarTransient) ---
  Interval window;              ///< mission-time window
  std::uint32_t solarPct = 100; ///< solar level inside the window, percent

  // --- battery derating (kBatteryDerate) ---
  Time at;                        ///< derate instant (mission time)
  std::uint32_t capacityPct = 100;
  std::uint32_t outputPct = 100;
};

/// Human-readable one-liner ("overrun drive1 @iter 3: 150% +2"), used in
/// executor event details and campaign logs.
std::string describe(const Fault& fault);

/// The scripted fault stream of one mission.
struct FaultPlan {
  std::vector<Fault> faults;

  [[nodiscard]] bool empty() const { return faults.empty(); }

  // Named constructors for the four kinds.
  static Fault overrun(std::string task, std::uint64_t iteration,
                       std::uint32_t scalePct,
                       Duration extra = Duration::zero());
  static Fault failure(std::string task, std::uint64_t iteration,
                       std::uint32_t failures = 1);
  static Fault solarTransient(Interval window, std::uint32_t solarPct);
  static Fault batteryDerate(Time at, std::uint32_t capacityPct,
                             std::uint32_t outputPct);
};

/// Overlays every solar transient of `plan` onto `base`, in plan order
/// (overlapping windows compose multiplicatively). With no solar faults
/// the result is an exact copy of `base`.
SolarSource applySolarFaults(const SolarSource& base, const FaultPlan& plan);

/// `battery` with `fault`'s derating applied: output and capacity scaled,
/// already-drawn energy preserved (clamped into the new capacity).
Battery derate(const Battery& battery, const Fault& fault);

}  // namespace paws::fault
