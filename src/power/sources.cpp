#include "power/sources.hpp"

#include <algorithm>

namespace paws {

SolarSource::SolarSource(std::vector<Phase> phases)
    : phases_(std::move(phases)) {
  PAWS_CHECK_MSG(!phases_.empty(), "solar source needs at least one phase");
  PAWS_CHECK_MSG(phases_.front().start == Time::zero(),
                 "first solar phase must start at mission time 0");
  for (std::size_t i = 1; i < phases_.size(); ++i) {
    PAWS_CHECK_MSG(phases_[i - 1].start < phases_[i].start,
                   "solar phase starts must be strictly increasing");
  }
}

Watts SolarSource::levelAt(Time t) const {
  PAWS_CHECK_MSG(t >= Time::zero(), "mission time must be non-negative");
  auto it = std::upper_bound(
      phases_.begin(), phases_.end(), t,
      [](Time t, const Phase& p) { return t < p.start; });
  // `it` is the first phase starting strictly after t; its predecessor rules.
  return std::prev(it)->level;
}

std::optional<Time> SolarSource::nextChangeAfter(Time t) const {
  auto it = std::upper_bound(
      phases_.begin(), phases_.end(), t,
      [](Time t, const Phase& p) { return t < p.start; });
  if (it == phases_.end()) return std::nullopt;
  return it->start;
}

Battery::Battery(Watts maxOutput, Energy capacity)
    : Battery(maxOutput, capacity, BatteryTraits{}) {}

Battery::Battery(Watts maxOutput, Energy capacity, BatteryTraits model)
    : maxOutput_(maxOutput), capacity_(capacity), model_(std::move(model)) {
  PAWS_CHECK_MSG(maxOutput >= Watts::zero(), "battery output must be >= 0");
  PAWS_CHECK_MSG(capacity >= Energy::zero(), "battery capacity must be >= 0");
  for (std::size_t i = 0; i < model_.bands.size(); ++i) {
    PAWS_CHECK_MSG(model_.bands[i].factorPermille >= 1000,
                   "rate-capacity factors must be >= 1000 permille");
    PAWS_CHECK_MSG(i == 0 || model_.bands[i - 1].threshold <
                                 model_.bands[i].threshold,
                   "rate band thresholds must strictly increase");
  }
  PAWS_CHECK_MSG(model_.recoverablePermille >= 0 &&
                     model_.recoverablePermille <= 1000,
                 "recoverable fraction must be in [0, 1000] permille");
  PAWS_CHECK_MSG(model_.recoveryRate >= Watts::zero(),
                 "recovery rate must be >= 0");
}

bool Battery::draw(Energy energy) {
  PAWS_CHECK_MSG(energy >= Energy::zero(), "cannot draw negative energy");
  drawn_ += energy;
  if (drawn_ > capacity_) {
    drawn_ = capacity_;
    return false;
  }
  return true;
}

bool Battery::draw(Energy energy, Time at) {
  if (draw(energy)) return true;
  markDepleted(at);
  return false;
}

bool Battery::drawAt(Watts rate, Duration span, Time at) {
  PAWS_CHECK_MSG(rate >= Watts::zero(), "cannot draw at a negative rate");
  PAWS_CHECK_MSG(span >= Duration::zero(), "cannot draw over a negative span");
  const Watts effective = effectiveRate(rate);
  if (effective > rate) {
    const Energy excess = (effective - rate) * span;
    rateExcess_ += excess;
    recoverable_ += Energy::fromMilliwattTicks(
        excess.milliwattTicks() * model_.recoverablePermille / 1000);
  }
  return draw(effective * span, at);
}

void Battery::recover(Duration span) {
  PAWS_CHECK_MSG(span >= Duration::zero(),
                 "cannot recover over a negative span");
  if (recoverable_.isZero() || span.ticks() == 0) return;
  Energy refund = model_.recoveryRate * span;
  if (refund > recoverable_) refund = recoverable_;
  if (refund > drawn_) refund = drawn_;  // never "recover" above full
  recoverable_ = recoverable_ - refund;
  drawn_ = drawn_ - refund;
  recovered_ += refund;
}

}  // namespace paws
