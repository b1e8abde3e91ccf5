// PowerAwareScheduler — the complete three-stage pipeline (Section 5).
//
// The one place the stages are assembled. Each trial runs timing
// scheduling and max-power spike elimination (MaxPowerScheduler, which
// nests the timing search), then min-power gap filling
// (MinPowerScheduler::improve) on the max-power result. Several seeded
// trials perturb the heuristics ("in practice, we scan the schedule
// multiple times while altering some of the heuristics during each scan
// and take the best results"). The best schedule is the one with the
// lowest energy cost Ec(Pmin); ties break on finish time, then on
// utilization.
#pragma once

#include "model/problem.hpp"
#include "sched/options.hpp"
#include "sched/result.hpp"

namespace paws {

struct PowerAwareOptions {
  /// Stage options; every trial runs max-power (with its nested timing
  /// search) and then min-power improvement on its result. Spikes before
  /// maxPower.ignoreSpikesBeforeTick are tolerated by both stages.
  MaxPowerOptions maxPower;
  MinPowerOptions minPower;
  /// Pipeline trials; trial k reseeds the heuristics with seed base+k and
  /// alternates the min-power scan order.
  std::uint32_t trials = 4;
  /// Observability hooks, propagated into every trial's nested stages.
  /// When a MetricsRegistry is attached the final stats are exported
  /// under their "search.*" names plus pipeline.trials{,_ok} counters.
  obs::ObsContext obs;
  /// One deadline for the whole multi-trial run: trials share the absolute
  /// time point, remaining trials are skipped once it trips, and the best
  /// anytime result seen so far is returned (kDeadlineExceeded unless some
  /// trial completed cleanly first).
  guard::RunBudget budget;
};

class PowerAwareScheduler {
 public:
  explicit PowerAwareScheduler(const Problem& problem,
                               PowerAwareOptions options = {});

  ScheduleResult schedule();

 private:
  const Problem& problem_;
  PowerAwareOptions options_;
};

}  // namespace paws
