// Scheduler outcomes: a schedule or a structured failure, plus search
// statistics for the benches.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sched/schedule.hpp"

namespace paws {

namespace obs {
class MetricsRegistry;
}  // namespace obs

enum class SchedStatus : std::uint8_t {
  kOk,                ///< schedule produced (power-valid where applicable)
  kTimingInfeasible,  ///< no time-valid schedule exists / was found
  kPowerInfeasible,   ///< time-valid found, but the Pmax budget defeated the
                      ///< heuristics (paper: FAIL of Fig. 4)
  kBudgetExhausted,   ///< search budget (backtracks/delays/depth) ran out
  kInvalidInput,      ///< malformed request (e.g. repair inputs that do not
                      ///< describe the same task set) — rejected up front
  kDeadlineExceeded,  ///< wall-clock deadline or CancelToken tripped the run
                      ///< (guard::RunBudget); schedule, if present, is the
                      ///< best incumbent so far (anytime result, not proven
                      ///< optimal)
};

const char* toString(SchedStatus status);

/// Search-effort counters, accumulated across recursions.
struct SchedulerStats {
  std::uint64_t longestPathRuns = 0;
  std::uint64_t backtracks = 0;      ///< timing candidate choices undone
  std::uint64_t delays = 0;          ///< max-power delay decisions
  std::uint64_t locks = 0;           ///< max-power lock decisions
  std::uint64_t recursions = 0;      ///< max-power reschedule recursions
  std::uint64_t scans = 0;           ///< min-power passes executed
  std::uint64_t improvements = 0;    ///< accepted min-power moves

  SchedulerStats& operator+=(const SchedulerStats& o) {
    longestPathRuns += o.longestPathRuns;
    backtracks += o.backtracks;
    delays += o.delays;
    locks += o.locks;
    recursions += o.recursions;
    scans += o.scans;
    improvements += o.improvements;
    return *this;
  }
};

/// SchedulerStats is the schedulers' cheap fixed-field counter set; the
/// MetricsRegistry (obs/metrics.hpp) is the superset. exportStats
/// publishes the counters under their stable "search.*" names:
/// search.longest_path_runs, search.backtracks, search.delays,
/// search.locks, search.recursions, search.scans, search.improvements.
void exportStats(const SchedulerStats& stats, obs::MetricsRegistry& registry);

struct ScheduleResult {
  SchedStatus status = SchedStatus::kTimingInfeasible;
  std::optional<Schedule> schedule;
  SchedulerStats stats;
  std::string message;

  [[nodiscard]] bool ok() const {
    return status == SchedStatus::kOk && schedule.has_value();
  }
};

}  // namespace paws
