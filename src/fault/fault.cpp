#include "fault/fault.hpp"

#include <algorithm>
#include <sstream>

#include "base/check.hpp"

namespace paws::fault {

std::string describe(const Fault& fault) {
  std::ostringstream os;
  switch (fault.kind) {
    case FaultKind::kTaskOverrun:
      os << "overrun " << fault.task << " @iter " << fault.iteration << ": "
         << fault.scalePct << "%";
      if (!fault.extra.isZero()) os << " +" << fault.extra.ticks();
      break;
    case FaultKind::kTaskFailure:
      os << "failure " << fault.task << " @iter " << fault.iteration << ": "
         << fault.failures << "x";
      break;
    case FaultKind::kSolarTransient:
      os << "solar " << fault.solarPct << "% over [" << fault.window.begin()
         << ", " << fault.window.end() << ")";
      break;
    case FaultKind::kBatteryDerate:
      os << "battery derate @" << fault.at << ": capacity "
         << fault.capacityPct << "%, output " << fault.outputPct << "%";
      break;
  }
  return os.str();
}

Fault FaultPlan::overrun(std::string task, std::uint64_t iteration,
                         std::uint32_t scalePct, Duration extra) {
  PAWS_CHECK_MSG(!task.empty(), "overrun fault needs a task name");
  PAWS_CHECK_MSG(scalePct >= 100, "an overrun cannot shorten a task");
  PAWS_CHECK_MSG(extra >= Duration::zero(), "overrun slip must be >= 0");
  Fault f;
  f.kind = FaultKind::kTaskOverrun;
  f.task = std::move(task);
  f.iteration = iteration;
  f.scalePct = scalePct;
  f.extra = extra;
  return f;
}

Fault FaultPlan::failure(std::string task, std::uint64_t iteration,
                         std::uint32_t failures) {
  PAWS_CHECK_MSG(!task.empty(), "failure fault needs a task name");
  PAWS_CHECK_MSG(failures >= 1, "a failure fault must fail at least once");
  Fault f;
  f.kind = FaultKind::kTaskFailure;
  f.task = std::move(task);
  f.iteration = iteration;
  f.failures = failures;
  return f;
}

Fault FaultPlan::solarTransient(Interval window, std::uint32_t solarPct) {
  PAWS_CHECK_MSG(!window.empty(), "solar transient needs a non-empty window");
  PAWS_CHECK_MSG(window.begin() >= Time::zero(),
                 "solar transient cannot start before the mission");
  Fault f;
  f.kind = FaultKind::kSolarTransient;
  f.window = window;
  f.solarPct = solarPct;
  return f;
}

Fault FaultPlan::batteryDerate(Time at, std::uint32_t capacityPct,
                               std::uint32_t outputPct) {
  PAWS_CHECK_MSG(capacityPct <= 100 && outputPct <= 100,
                 "derating cannot grow the battery");
  Fault f;
  f.kind = FaultKind::kBatteryDerate;
  f.at = at;
  f.capacityPct = capacityPct;
  f.outputPct = outputPct;
  return f;
}

namespace {

Watts scalePct(Watts w, std::uint32_t pct) {
  return Watts::fromMilliwatts(w.milliwatts() * pct / 100);
}

Energy scalePct(Energy e, std::uint32_t pct) {
  return Energy::fromMilliwattTicks(e.milliwattTicks() * pct / 100);
}

/// One transient overlaid on `base`: inside the window the level is scaled,
/// outside it is untouched. Breakpoints are the union of the base phase
/// starts and the window bounds; equal-level neighbours merge so repeated
/// application stays canonical.
SolarSource overlay(const SolarSource& base, const Fault& f) {
  std::vector<Time> starts;
  for (const SolarSource::Phase& p : base.phases()) starts.push_back(p.start);
  starts.push_back(f.window.begin());
  starts.push_back(f.window.end());
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());

  std::vector<SolarSource::Phase> phases;
  for (const Time t : starts) {
    Watts level = base.levelAt(t);
    if (f.window.contains(t)) level = scalePct(level, f.solarPct);
    if (!phases.empty() && phases.back().level == level) continue;
    phases.push_back(SolarSource::Phase{t, level});
  }
  return SolarSource(std::move(phases));
}

}  // namespace

SolarSource applySolarFaults(const SolarSource& base, const FaultPlan& plan) {
  SolarSource result = base;
  for (const Fault& f : plan.faults) {
    if (f.kind != FaultKind::kSolarTransient) continue;
    result = overlay(result, f);
  }
  return result;
}

Battery derate(const Battery& battery, const Fault& fault) {
  PAWS_CHECK(fault.kind == FaultKind::kBatteryDerate);
  Battery derated(scalePct(battery.maxOutput(), fault.outputPct),
                  scalePct(battery.capacity(), fault.capacityPct),
                  battery.model());
  derated.inheritAccounting(battery);
  // Re-draw the spent charge against the shrunken capacity; a clamp here
  // means the derate itself killed the pack at the fault instant.
  if (battery.drawn() > Energy::zero()) {
    derated.draw(battery.drawn(), fault.at);
  }
  return derated;
}

}  // namespace paws::fault
