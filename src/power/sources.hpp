// Energy sources: free (solar) and costly (non-rechargeable battery).
//
// The paper's power constraints are derived from the platform's sources
// (Section 3): Pmax = available solar power + maximum battery output, and
// Pmin = the solar level, so that consumption below Pmin is free while
// consumption above it drains mission lifetime. `SolarSource` models the
// time-varying free level (piecewise constant over mission time, like the
// 14.9 -> 12 -> 9 W scenario of Table 4); `Battery` models the costly
// source with a max output and a finite, non-rechargeable capacity.
#pragma once

#include <optional>
#include <vector>

#include "base/check.hpp"
#include "base/time.hpp"
#include "base/units.hpp"
#include "model/battery_traits.hpp"

namespace paws {

/// Piecewise-constant free power over mission time. The last level extends
/// to infinity (a mission phase list never "runs out" of definition).
class SolarSource {
 public:
  /// Phased output: `phases[i]` holds from its start time until the next
  /// phase's start; starts must be strictly increasing and begin at 0.
  struct Phase {
    Time start;
    Watts level;
  };
  explicit SolarSource(std::vector<Phase> phases);

  /// Free power available at mission time t (t >= 0).
  [[nodiscard]] Watts levelAt(Time t) const;

  /// Mission time when the level next changes strictly after t, if any.
  [[nodiscard]] std::optional<Time> nextChangeAfter(Time t) const;

  [[nodiscard]] const std::vector<Phase>& phases() const { return phases_; }

 private:
  std::vector<Phase> phases_;
};

/// Non-rechargeable battery: bounded instantaneous output and finite
/// capacity. `draw()` performs the accounting a mission simulator needs.
///
/// With a non-linear BatteryTraits model the battery additionally applies
/// the rate-capacity effect — `drawAt()` drains `effectiveRate(rate)`
/// instead of `rate`, banking the configured fraction of the superlinear
/// excess as recoverable charge that `recover()` refunds during idle gaps.
/// The default (linear) model makes every one of these paths an exact
/// identity, so pre-rate-capacity accounting is bit-preserved.
class Battery {
 public:
  Battery(Watts maxOutput, Energy capacity);
  Battery(Watts maxOutput, Energy capacity, BatteryTraits model);

  [[nodiscard]] Watts maxOutput() const { return maxOutput_; }
  [[nodiscard]] Energy capacity() const { return capacity_; }
  [[nodiscard]] Energy drawn() const { return drawn_; }
  [[nodiscard]] Energy remaining() const { return capacity_ - drawn_; }
  [[nodiscard]] bool depleted() const { return drawn_ >= capacity_; }

  [[nodiscard]] const BatteryTraits& model() const { return model_; }
  /// Effective charge-drain rate for a nominal draw under the model.
  [[nodiscard]] Watts effectiveRate(Watts rate) const {
    return model_.effectiveRate(rate);
  }
  /// Banked recoverable charge (always zero under the linear model).
  [[nodiscard]] Energy recoverable() const { return recoverable_; }
  /// Total rate-capacity excess drained so far (effective minus nominal).
  [[nodiscard]] Energy rateExcess() const { return rateExcess_; }
  /// Total charge refunded by idle-gap recovery so far.
  [[nodiscard]] Energy recovered() const { return recovered_; }

  /// Mission tick at which the charge ran out, latched by the first
  /// clamping draw (or explicitly via markDepleted for exact mid-slice
  /// depletion instants). nullopt while the battery still holds charge.
  [[nodiscard]] const std::optional<Time>& depletedAt() const {
    return depletedAt_;
  }
  /// Latches the depletion instant without drawing (the mission simulator
  /// computes the exact mid-slice death tick before the final draw).
  void markDepleted(Time at) {
    if (!depletedAt_.has_value()) depletedAt_ = at;
  }

  /// Records `energy` drawn from the battery. Returns false (and clamps to
  /// capacity) when the draw exceeds the remaining charge.
  bool draw(Energy energy);

  /// As draw(Energy), latching `at` as the depletion tick on a clamp.
  bool draw(Energy energy, Time at);

  /// Draws at nominal `rate` over `span` with the rate-capacity effect
  /// applied: effectiveRate(rate) * span leaves the battery and the
  /// recoverable fraction of the excess is banked. Identical to
  /// draw(rate * span, at) under the linear model.
  bool drawAt(Watts rate, Duration span, Time at);

  /// Idle-gap recovery: refunds banked charge at the model's recovery
  /// rate over `span` (a no-op under the linear model).
  void recover(Duration span);

  /// Carries the non-charge accounting (recoverable pool, rate-capacity
  /// totals, depletion latch) over from a predecessor battery — used when
  /// a fault derates the pack mid-mission into a fresh Battery object.
  void inheritAccounting(const Battery& from) {
    recoverable_ = from.recoverable_;
    rateExcess_ = from.rateExcess_;
    recovered_ = from.recovered_;
    depletedAt_ = from.depletedAt_;
  }

  /// Resets the accounting (fresh battery).
  void reset() {
    drawn_ = Energy::zero();
    recoverable_ = Energy::zero();
    rateExcess_ = Energy::zero();
    recovered_ = Energy::zero();
    depletedAt_.reset();
  }

 private:
  Watts maxOutput_;
  Energy capacity_;
  Energy drawn_;
  BatteryTraits model_;
  Energy recoverable_;
  Energy rateExcess_;
  Energy recovered_;
  std::optional<Time> depletedAt_;
};

}  // namespace paws
