#include "sched/min_power_scheduler.hpp"

#include <algorithm>

#include "graph/longest_path.hpp"
#include "obs/incumbents.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"
#include "power/profile_engine.hpp"
#include "sched/slack.hpp"

namespace paws {

namespace {

std::uint32_t nextRand(std::uint32_t& state) {
  std::uint32_t x = state;
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  return state = x;
}

ScanOrder rotateScan(ScanOrder order) {
  switch (order) {
    case ScanOrder::kForward:
      return ScanOrder::kBackward;
    case ScanOrder::kBackward:
      return ScanOrder::kRandom;
    case ScanOrder::kRandom:
      return ScanOrder::kForward;
  }
  return ScanOrder::kForward;
}

SlotHeuristic rotateSlot(SlotHeuristic h) {
  switch (h) {
    case SlotHeuristic::kStartAtGap:
      return SlotHeuristic::kFinishAtGapEnd;
    case SlotHeuristic::kFinishAtGapEnd:
      return SlotHeuristic::kRandom;
    case SlotHeuristic::kRandom:
      return SlotHeuristic::kStartAtGap;
  }
  return SlotHeuristic::kStartAtGap;
}

}  // namespace

MinPowerScheduler::MinPowerScheduler(const Problem& problem,
                                     MinPowerOptions options)
    : problem_(problem), options_(options) {}

ScheduleResult MinPowerScheduler::improve(const Schedule& valid,
                                          SchedulerStats stats,
                                          Time spikeHorizon) {
  obs::PhaseTimer phaseTimer(options_.obs, "min-power");
  ScheduleResult out;
  out.stats = stats;

  const Watts pmax = problem_.maxPower();
  const Watts pmin = problem_.minPower();
  std::vector<Time> starts = valid.starts();
  std::uint32_t rng = options_.randomSeed == 0 ? 1 : options_.randomSeed;

  // The live profile. Candidate gap-filling moves are evaluated by
  // checkpointing the engine, applying moveTask deltas for only the tasks
  // the longest-path run moved, reading spike/utilization from cached
  // aggregates, and restoring on reject.
  power::ProfileEngine pe(problem_.backgroundPower(), pmin, pmax);
  pe.rebuild(problem_, starts);

  // The graph the schedule implies; its ASAP solution is the schedule iff
  // the schedule is time-valid. Seeding the engine once lets every
  // candidate-move evaluation below run incrementally (one delay edge
  // added, checkpoint-restored on reject).
  ConstraintGraph graph = scheduleGraph(valid);
  LongestPathEngine engine(graph);
  engine.setObs(options_.obs);
  const LongestPathResult& seed = engine.compute(kAnchorTask);
  ++out.stats.longestPathRuns;
  if (!seed.feasible || seed.dist != starts ||
      pe.firstSpike(spikeHorizon).has_value()) {
    out.status = SchedStatus::kInvalidInput;
    out.message = "improve() needs a time-valid and Pmax-valid schedule";
    return out;
  }

  double rho = pe.utilization();
  // Anytime curve: the schedule handed to improve() is the first
  // incumbent; every accepted move below lowers Ec and appends a point.
  const auto recordIncumbent = [&] {
    if (options_.obs.incumbents == nullptr) return;
    options_.obs.incumbents->record(pe.energyAbove().milliwattTicks());
  };
  recordIncumbent();

  ScanOrder scan = options_.scanOrder;
  SlotHeuristic slot = options_.slotHeuristic;

  // Anytime guard: between candidate evaluations `starts` is always a
  // valid (timing- and Pmax-respecting) schedule — every rejected move is
  // rolled back before the next one is tried — so a trip mid-improvement
  // simply stops polishing and returns the current schedule.
  guard::RunGuard guard(options_.budget.resolved(), /*stride=*/8);
  bool tripped = false;

  for (std::uint32_t pass = 0;
       pass < options_.maxPasses && rho < 1.0 && !tripped; ++pass) {
    ++out.stats.scans;
    PAWS_TRACE_INSTANT(options_.obs.trace, obs::TraceEventKind::kScanPass,
                       obs::TraceEvent::kNoTask, /*at=*/0,
                       /*value=*/static_cast<std::int64_t>(rho * 1e6), pass);
    bool improvedInPass = false;
    bool rescan = true;

    while (rescan && rho < 1.0 && !tripped) {
      rescan = false;
      std::vector<Interval> gaps = pe.gaps();
      // Slacks depend only on the graph and starts, which change solely on
      // accepted moves — and those set rescan and break back here. One
      // computation covers every gap of this scan.
      const std::vector<Duration> slacks = computeSlacks(graph, starts);
      switch (scan) {
        case ScanOrder::kForward:
          break;  // gaps() is already in increasing time order
        case ScanOrder::kBackward:
          std::reverse(gaps.begin(), gaps.end());
          break;
        case ScanOrder::kRandom:
          for (std::size_t i = gaps.size(); i > 1; --i) {
            std::swap(gaps[i - 1], gaps[nextRand(rng) % i]);
          }
          break;
      }

      for (const Interval& gap : gaps) {
        const Time t = gap.begin();
        if (pe.valueAt(t) >= pmin) continue;  // stale after a move

        // Candidates: tasks that completed before t but can be delayed,
        // within their slack, far enough to be active at t.
        std::vector<TaskId> candidates;
        for (TaskId v : problem_.taskIds()) {
          const Task& task = problem_.task(v);
          const Time end = starts[v.index()] + task.delay;
          if (end > t) continue;  // still running at/after t, cannot "fill"
          const Duration neededSlack =
              (t - starts[v.index()]) - task.delay + Duration(1);
          if (slacks[v.index()] >= neededSlack) candidates.push_back(v);
        }
        // Try the largest power draw first: it fills the gap fastest.
        std::stable_sort(candidates.begin(), candidates.end(),
                         [this](TaskId x, TaskId y) {
                           return problem_.task(x).power >
                                  problem_.task(y).power;
                         });

        for (TaskId v : candidates) {
          if (guard.poll() != guard::StopReason::kNone) {
            tripped = true;
            break;
          }
          const Task& task = problem_.task(v);
          const Time cur = starts[v.index()];
          // Feasible new-start window that keeps v active at t. Unbounded
          // slack (no outgoing constraints) must not enter the arithmetic:
          // cur + Duration::max() would overflow.
          const Time lo =
              std::max(cur + Duration(1), t - task.delay + Duration(1));
          const Time hi = slacks[v.index()] == Duration::max()
                              ? t
                              : std::min(t, cur + slacks[v.index()]);
          if (lo > hi) continue;

          Time target;
          switch (slot) {
            case SlotHeuristic::kStartAtGap:
              target = hi;  // as close to starting at t as slack allows
              break;
            case SlotHeuristic::kFinishAtGapEnd:
              target = gap.end() - task.delay;
              target = std::clamp(target, lo, hi);
              break;
            case SlotHeuristic::kRandom:
              target = lo + Duration(static_cast<std::int64_t>(
                                nextRand(rng) %
                                static_cast<std::uint64_t>(
                                    (hi - lo).ticks() + 1)));
              break;
          }

          const ConstraintGraph::Checkpoint cp = graph.checkpoint();
          const LongestPathEngine::Checkpoint ecp = engine.checkpoint();
          graph.addEdge(kAnchorTask, v, target - Time::zero(),
                        EdgeKind::kDelay);
          const LongestPathResult& lp = engine.compute(kAnchorTask);
          ++out.stats.longestPathRuns;
          if (!lp.feasible) {
            graph.rollbackTo(cp);
            engine.restore(ecp);
            continue;
          }
          // Evaluate the move: apply it to the live profile as deltas for
          // only the tasks the propagation actually shifted (usually v and
          // a handful of successors), read the verdict from the cached
          // aggregates, and keep or undo the frame with the graph trail.
          const power::ProfileEngine::Checkpoint pcp = pe.checkpoint();
          for (std::size_t i = 1; i < lp.dist.size(); ++i) {
            if (lp.dist[i] != starts[i]) {
              pe.moveTask(TaskId(static_cast<std::uint32_t>(i)), lp.dist[i]);
            }
          }
          const bool powerValid = !pe.firstSpike(spikeHorizon).has_value();
          const double newRho = pe.utilization();
          if (powerValid && newRho > rho) {
            engine.release(ecp);  // the delay edge is being kept
            pe.release(pcp);
            starts = lp.dist;
            rho = newRho;
            recordIncumbent();
            ++out.stats.improvements;
            PAWS_TRACE_INSTANT(options_.obs.trace,
                               obs::TraceEventKind::kMoveAccepted, v.value(),
                               target.ticks(),
                               static_cast<std::int64_t>(newRho * 1e6), pass);
            improvedInPass = true;
            rescan = true;  // gap list is stale; rebuild it
            break;
          }
          PAWS_TRACE_INSTANT(options_.obs.trace,
                             obs::TraceEventKind::kMoveRejected, v.value(),
                             target.ticks(),
                             static_cast<std::int64_t>(newRho * 1e6), pass);
          graph.rollbackTo(cp);
          engine.restore(ecp);
          pe.restore(pcp);
        }
        if (rescan || tripped) break;
      }
    }

    if (!improvedInPass) break;
    if (options_.rotateHeuristics) {
      scan = rotateScan(scan);
      slot = rotateSlot(slot);
    }
  }

  if (options_.obs.metrics != nullptr) {
    pe.exportMetrics(*options_.obs.metrics);
    if (tripped) {
      options_.obs.metrics->add(
          guard.reason() == guard::StopReason::kCancelled
              ? "guard.cancels"
              : "guard.deadline_trips",
          1);
      options_.obs.metrics->add("guard.incumbent_returned", 1);
    }
  }

  if (tripped) {
    // The last consistent schedule — valid, just not polished to the end.
    out.status = SchedStatus::kDeadlineExceeded;
    out.message = guard.reason() == guard::StopReason::kCancelled
                      ? "cancelled during min-power improvement; returning "
                        "last consistent schedule"
                      : "deadline exceeded during min-power improvement; "
                        "returning last consistent schedule";
    out.schedule = Schedule(&problem_, starts);
    return out;
  }

  out.status = SchedStatus::kOk;
  out.schedule = Schedule(&problem_, starts);
  return out;
}

}  // namespace paws
