// Battery stress analysis — quantifying the paper's second motivation for
// the min power constraint: "to control the jitter in the system-level
// power curve to improve battery usage" (Section 2).
//
// Real (especially cold, non-rechargeable lithium) batteries deliver less
// total energy when drained in tall, spiky bursts than under a steady
// draw. We expose a stress report over the *battery draw* curve
// B(t) = max(0, P(t) - free(t)): peak, average, jitter (largest
// instantaneous step), and the exact integral of B(t)^2 — the ohmic
// (I^2 R-shaped) loss proxy, computed in closed form on the
// piecewise-constant profile. The battery loss model itself (rate-capacity
// effect and charge recovery) lives in model/battery_traits.hpp.
//
// The min-power scheduler cannot increase and usually lowers every one of
// these measures versus the max-power-only schedule (gap filling flattens
// the curve); tests and the jitter bench quantify it.
#pragma once

#include <cstdint>

#include "base/units.hpp"
#include "power/profile.hpp"

namespace paws {

/// Stress measures of the battery draw B(t) = max(0, P(t) - freeLevel).
struct BatteryStressReport {
  Watts peakDraw;        ///< max_t B(t)
  Watts meanDraw;        ///< integral of B / span (rounded to mW)
  Watts jitter;          ///< largest instantaneous step of B(t)
  Energy drawnEnergy;    ///< integral of B dt — the energy cost Ec
  /// Integral of B(t)^2 dt in (mW)^2·ticks — the ohmic-loss proxy; exact.
  std::uint64_t squaredDrawIntegral = 0;
};

/// Computes the stress report for `profile` against a constant free level
/// (the Pmin of the case under analysis).
BatteryStressReport analyzeBatteryStress(const PowerProfile& profile,
                                         Watts freeLevel);

}  // namespace paws
