// Sensitivity analysis of a fixed schedule's power properties.
//
// Section 5.3 observes that the improved schedule of Fig. 7 "can be
// directly applied to all cases with Pmax >= 16, Pmin <= 14, without
// recomputing a schedule for each case", which is what makes statically
// computed power-aware schedules usable by a lightweight runtime selector
// (runtime/executor.hpp). This module makes those ranges first-class:
//
//   * minimalValidPmax — the schedule stays power-valid for every budget at
//     or above its profile peak;
//   * energyCostCurve  — Ec(Pmin) is piecewise linear in Pmin with
//     breakpoints exactly at the profile's distinct power levels; we return
//     the exact breakpoints so callers can evaluate or plot without
//     sampling error.
//
// Cost and utilization at an arbitrary floor are PowerProfile::energyAbove
// and PowerProfile::utilization on the schedule's profile.
#pragma once

#include <vector>

#include "base/units.hpp"
#include "sched/schedule.hpp"

namespace paws {

/// One exact breakpoint of the piecewise-linear Ec(Pmin) curve.
struct EcBreakpoint {
  Watts pmin;
  Energy cost;
};

class ScheduleAnalysis {
 public:
  /// The schedule is power-valid for every Pmax >= this (the profile peak).
  static Watts minimalValidPmax(const Schedule& schedule);

  /// Exact breakpoints of Ec(Pmin), ascending in Pmin, from 0 W up to the
  /// profile peak (where the cost reaches 0). Between breakpoints the curve
  /// is linear; evaluate with PowerProfile::energyAbove().
  static std::vector<EcBreakpoint> energyCostCurve(const Schedule& schedule);
};

}  // namespace paws
