#include "validate/validator.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace paws {

const char* toString(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kNegativeStart:
      return "negative-start";
    case Violation::Kind::kMinSeparation:
      return "min-separation";
    case Violation::Kind::kMaxSeparation:
      return "max-separation";
    case Violation::Kind::kResourceOverlap:
      return "resource-overlap";
    case Violation::Kind::kPowerSpike:
      return "power-spike";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Violation& v) {
  return os << toString(v.kind) << ": " << v.detail;
}

ValidationReport ScheduleValidator::validate(const Schedule& schedule) const {
  ValidationReport report;
  auto add = [&report](Violation::Kind kind, const auto&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    report.violations.push_back(Violation{kind, os.str()});
  };

  // Non-negative starts.
  bool anyNegative = false;
  for (TaskId v : problem_.taskIds()) {
    if (schedule.start(v) < Time::zero()) {
      anyNegative = true;
      add(Violation::Kind::kNegativeStart, "task '", problem_.task(v).name,
          "' starts at ", schedule.start(v));
    }
  }

  // Timing separations, straight from the declarations.
  for (const TimingConstraint& c : problem_.constraints()) {
    const Time from = schedule.start(c.from);
    const Time to = schedule.start(c.to);
    switch (c.kind) {
      case TimingConstraint::Kind::kMinSeparation:
        if (to - from < c.separation) {
          add(Violation::Kind::kMinSeparation, "'",
              problem_.task(c.to).name, "' starts ", (to - from).ticks(),
              " after '", problem_.task(c.from).name, "', needs >= ",
              c.separation.ticks());
        }
        break;
      case TimingConstraint::Kind::kMaxSeparation:
        if (to - from > c.separation) {
          add(Violation::Kind::kMaxSeparation, "'",
              problem_.task(c.to).name, "' starts ", (to - from).ticks(),
              " after '", problem_.task(c.from).name, "', needs <= ",
              c.separation.ticks());
        }
        break;
    }
  }

  // Resource exclusivity: group per resource (dense vectors indexed by
  // resource id — no tree map), sort by start, adjacent overlap check.
  const std::span<const ResourceId> taskResources = problem_.taskResources();
  std::vector<std::vector<TaskId>> byResource(problem_.numResources());
  for (std::size_t i = 1; i < problem_.numVertices(); ++i) {
    byResource[taskResources[i].index()].push_back(
        TaskId(static_cast<std::uint32_t>(i)));
  }
  for (std::size_t r = 0; r < byResource.size(); ++r) {
    std::vector<TaskId>& tasks = byResource[r];
    std::sort(tasks.begin(), tasks.end(), [&](TaskId a, TaskId b) {
      return schedule.start(a) < schedule.start(b);
    });
    for (std::size_t i = 1; i < tasks.size(); ++i) {
      const TaskId prev = tasks[i - 1];
      const TaskId cur = tasks[i];
      if (schedule.interval(prev).overlaps(schedule.interval(cur))) {
        add(Violation::Kind::kResourceOverlap, "'",
            problem_.task(prev).name, "' ", schedule.interval(prev),
            " and '", problem_.task(cur).name, "' ", schedule.interval(cur),
            " overlap on resource '",
            problem_.resource(ResourceId(static_cast<std::uint32_t>(r))).name,
            "'");
      }
    }
  }

  // Power budget, via the profile (fixed-point, so exact). Profiles are
  // only defined over [0, finish), so skip when a start is negative — the
  // kNegativeStart violations already invalidate the schedule.
  if (!anyNegative) {
    const PowerProfile& profile = schedule.powerProfile();
    for (const Interval& spike : profile.spikes(problem_.maxPower())) {
      add(Violation::Kind::kPowerSpike, "P(t) > ", problem_.maxPower(),
          " during ", spike);
    }
    report.powerGaps = profile.gaps(problem_.minPower());
  }
  return report;
}

}  // namespace paws
