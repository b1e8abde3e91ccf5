// One trial of the three-stage pipeline for tests: PowerAwareScheduler
// with trials = 1, so the seeds and heuristics in `options` run exactly
// as given (timing -> max-power -> min-power improvement).
#pragma once

#include "sched/power_aware_scheduler.hpp"

namespace paws::testutil {

inline ScheduleResult runPipelineOnce(const Problem& problem,
                                      PowerAwareOptions options = {}) {
  options.trials = 1;
  return PowerAwareScheduler(problem, options).schedule();
}

}  // namespace paws::testutil
