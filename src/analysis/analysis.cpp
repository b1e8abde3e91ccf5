#include "analysis/analysis.hpp"

#include <set>

namespace paws {

Watts ScheduleAnalysis::minimalValidPmax(const Schedule& schedule) {
  return schedule.powerProfile().peak();
}

std::vector<EcBreakpoint> ScheduleAnalysis::energyCostCurve(
    const Schedule& schedule) {
  const PowerProfile& profile = schedule.powerProfile();
  // Ec(pmin) = sum over segments of max(0, P_s - pmin) * len_s: piecewise
  // linear with slope changes exactly at the distinct segment powers.
  std::set<Watts> levels{Watts::zero()};
  for (const PowerSegment& s : profile.segments()) levels.insert(s.power);

  std::vector<EcBreakpoint> curve;
  curve.reserve(levels.size());
  for (const Watts level : levels) {
    curve.push_back(EcBreakpoint{level, profile.energyAbove(level)});
  }
  return curve;
}

}  // namespace paws
