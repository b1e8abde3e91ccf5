#include "sched/power_aware_scheduler.hpp"

#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "sched/max_power_scheduler.hpp"
#include "sched/min_power_scheduler.hpp"

namespace paws {

namespace {

/// Lexicographic quality: lower energy cost, then earlier finish, then
/// higher utilization.
bool betterThan(const Schedule& a, const Schedule& b, Watts pmin) {
  const Energy ecA = a.energyCost(pmin);
  const Energy ecB = b.energyCost(pmin);
  if (ecA != ecB) return ecA < ecB;
  if (a.finish() != b.finish()) return a.finish() < b.finish();
  return a.utilization(pmin) > b.utilization(pmin);
}

}  // namespace

PowerAwareScheduler::PowerAwareScheduler(const Problem& problem,
                                         PowerAwareOptions options)
    : problem_(problem), options_(options) {}

ScheduleResult PowerAwareScheduler::schedule() {
  const Watts pmin = problem_.minPower();
  obs::PhaseTimer phase(options_.obs, "pipeline");
  ScheduleResult best;
  bool haveBest = false;
  SchedulerStats total;
  std::uint32_t trialsOk = 0;

  // One absolute deadline for every trial; once it trips there is no point
  // starting the next trial (it would trip at its first poll anyway).
  options_.budget = options_.budget.resolved();
  guard::RunGuard trialGuard(options_.budget, /*stride=*/1);

  const std::uint32_t trials = std::max<std::uint32_t>(options_.trials, 1);
  for (std::uint32_t k = 0; k < trials; ++k) {
    if (k > 0 && trialGuard.check() != guard::StopReason::kNone) break;
    MaxPowerOptions maxOpts = options_.maxPower;
    maxOpts.obs.inheritFrom(options_.obs);
    maxOpts.budget.inheritFrom(options_.budget);
    maxOpts.randomSeed += k;
    maxOpts.timing.randomSeed += k;
    MinPowerOptions minOpts = options_.minPower;
    minOpts.obs.inheritFrom(options_.obs);
    minOpts.budget.inheritFrom(options_.budget);
    minOpts.randomSeed += k;
    // Alternate the first scan direction across trials so different partial
    // orders get explored even without randomness.
    if (k % 2 == 1) {
      minOpts.scanOrder = minOpts.scanOrder == ScanOrder::kForward
                              ? ScanOrder::kBackward
                              : ScanOrder::kForward;
    }
    if (k >= 2) minOpts.slotHeuristic = SlotHeuristic::kFinishAtGapEnd;

    obs::PhaseTimer trialTimer(options_.obs, "trial", k);
    ScheduleResult r = MaxPowerScheduler(problem_, maxOpts).schedule();
    if (r.ok()) {
      r = MinPowerScheduler(problem_, minOpts)
              .improve(*r.schedule, r.stats,
                       Time(maxOpts.ignoreSpikesBeforeTick));
    }
    trialTimer.finish();
    total += r.stats;
    if (!r.ok()) {
      if (!haveBest) {
        // A deadline-tripped trial can still carry an anytime schedule;
        // keep the best of those unless some trial completes cleanly. A
        // schedule-less failure only provides diagnostics (last one wins,
        // as before the guard existed).
        const bool anytime = r.status == SchedStatus::kDeadlineExceeded &&
                             r.schedule.has_value();
        const bool bestAnytime = best.schedule.has_value();
        if (anytime) {
          if (!bestAnytime || betterThan(*r.schedule, *best.schedule, pmin)) {
            best = std::move(r);
          }
        } else if (!bestAnytime) {
          best = std::move(r);  // Remember the failure diagnostics.
        }
      }
      continue;
    }
    ++trialsOk;
    if (!haveBest || !best.ok() ||
        betterThan(*r.schedule, *best.schedule, pmin)) {
      best = std::move(r);
      haveBest = true;
    }
  }
  best.stats = total;
  if (options_.obs.metrics != nullptr) {
    obs::MetricsRegistry& m = *options_.obs.metrics;
    exportStats(total, m);
    m.add("pipeline.trials", trials);
    m.add("pipeline.trials_ok", trialsOk);
    m.set("pipeline.status", static_cast<double>(
                                 static_cast<std::uint8_t>(best.status)));
  }
  return best;
}

}  // namespace paws
