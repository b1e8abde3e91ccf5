#include "sched/result.hpp"

#include "obs/metrics.hpp"

namespace paws {

const char* toString(SchedStatus status) {
  switch (status) {
    case SchedStatus::kOk:
      return "ok";
    case SchedStatus::kTimingInfeasible:
      return "timing-infeasible";
    case SchedStatus::kPowerInfeasible:
      return "power-infeasible";
    case SchedStatus::kBudgetExhausted:
      return "budget-exhausted";
    case SchedStatus::kInvalidInput:
      return "invalid-input";
    case SchedStatus::kDeadlineExceeded:
      return "deadline-exceeded";
  }
  return "?";
}

void exportStats(const SchedulerStats& stats, obs::MetricsRegistry& registry) {
  registry.add("search.longest_path_runs", stats.longestPathRuns);
  registry.add("search.backtracks", stats.backtracks);
  registry.add("search.delays", stats.delays);
  registry.add("search.locks", stats.locks);
  registry.add("search.recursions", stats.recursions);
  registry.add("search.scans", stats.scans);
  registry.add("search.improvements", stats.improvements);
}

}  // namespace paws
