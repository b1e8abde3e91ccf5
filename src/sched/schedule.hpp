// A schedule sigma: one start time per task (Section 4.1).
//
// A Schedule is immutable value data bound to its Problem; all power
// properties (profile, energy cost, utilization) derive from it on demand.
// Schedulers manipulate raw start-time vectors internally and wrap the final
// assignment in a Schedule.
#pragma once

#include <vector>

#include "base/ids.hpp"
#include "base/interval.hpp"
#include "base/time.hpp"
#include "base/units.hpp"
#include "model/problem.hpp"
#include "power/profile.hpp"

namespace paws {

class Schedule {
 public:
  /// `starts` is indexed by graph vertex (starts[0] = anchor, must be 0).
  Schedule(const Problem* problem, std::vector<Time> starts);

  [[nodiscard]] const Problem& problem() const { return *problem_; }

  [[nodiscard]] Time start(TaskId v) const;
  [[nodiscard]] Time end(TaskId v) const;
  /// Activity window [start, start + d(v)).
  [[nodiscard]] Interval interval(TaskId v) const;

  /// Finish time tau: when all tasks have completed.
  [[nodiscard]] Time finish() const { return finish_; }

  /// System power profile: background + all task contributions over
  /// [0, finish).
  [[nodiscard]] const PowerProfile& powerProfile() const;

  /// Energy cost Ec_sigma(pmin) including background power.
  [[nodiscard]] Energy energyCost(Watts pmin) const {
    return powerProfile().energyAbove(pmin);
  }
  /// Min-power utilization rho_sigma(pmin).
  [[nodiscard]] double utilization(Watts pmin) const {
    return powerProfile().utilization(pmin);
  }

  /// Raw start vector (vertex-indexed), for schedulers and serializers.
  [[nodiscard]] const std::vector<Time>& starts() const { return starts_; }

 private:
  const Problem* problem_;
  std::vector<Time> starts_;
  Time finish_;
  mutable std::optional<PowerProfile> profile_;  // computed lazily
};

/// Builds the power profile for an arbitrary start assignment without
/// constructing a Schedule (schedulers' inner loops).
PowerProfile profileOf(const Problem& problem, const std::vector<Time>& starts);

/// Finish time of a raw start assignment.
Time finishOf(const Problem& problem, const std::vector<Time>& starts);

}  // namespace paws
