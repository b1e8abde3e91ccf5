#include "analysis/battery_stress.hpp"

#include <algorithm>

namespace paws {

BatteryStressReport analyzeBatteryStress(const PowerProfile& profile,
                                         Watts freeLevel) {
  BatteryStressReport report{};
  const Duration span = profile.finish() - Time::zero();

  Watts prevDraw = Watts::zero();
  for (const PowerSegment& s : profile.segments()) {
    const Watts draw =
        s.power > freeLevel ? s.power - freeLevel : Watts::zero();
    report.peakDraw = std::max(report.peakDraw, draw);
    const Watts step =
        draw > prevDraw ? draw - prevDraw : prevDraw - draw;
    report.jitter = std::max(report.jitter, step);
    report.drawnEnergy += draw * s.interval.length();
    const std::uint64_t mw = static_cast<std::uint64_t>(draw.milliwatts());
    report.squaredDrawIntegral +=
        mw * mw * static_cast<std::uint64_t>(s.interval.length().ticks());
    prevDraw = draw;
  }
  // Final drop back to zero counts as a step too.
  report.jitter = std::max(report.jitter, prevDraw);

  if (span > Duration::zero()) {
    report.meanDraw = Watts::fromMilliwatts(
        report.drawnEnergy.milliwattTicks() / span.ticks());
  }
  return report;
}

}  // namespace paws
