// Degraded-mission executor tests: fault injection, the contingency
// closed loop, and the integration edge cases around brownouts and
// depletion.
#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "rover/rover_model.hpp"
#include "runtime/executor.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "sched/serial_scheduler.hpp"

namespace paws::runtime {
namespace {

using namespace paws::literals;
using fault::ContingencyOptions;
using fault::FaultPlan;
using rover::RoverCase;

std::string renderTrace(const ExecutionResult& r) {
  std::string out;
  for (const Event& e : r.trace) {
    out += std::to_string(e.at.ticks());
    out += ' ';
    out += toString(e.kind);
    out += ' ';
    out += e.detail;
    out += '\n';
  }
  return out;
}

/// Rover fixture with the heaters marked droppable (criticality 1..5) so
/// the shedding contingency has victims; hazard/steer/drive stay critical.
class DegradedRover : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const RoverCase c :
         {RoverCase::kBest, RoverCase::kTypical, RoverCase::kWorst}) {
      problems_.push_back(
          std::make_unique<Problem>(rover::makeRoverProblem(c, 1)));
      Problem& p = *problems_.back();
      std::uint8_t rank = 1;
      for (TaskId v : p.taskIds()) {
        if (p.task(v).name.rfind("heat_", 0) == 0) {
          p.setCriticality(v, rank++);
        }
      }
    }
    for (std::size_t i = 0; i < 3; ++i) {
      PowerAwareScheduler scheduler(*problems_[i]);
      ScheduleResult r = scheduler.schedule();
      ASSERT_TRUE(r.ok());
      schedules_.push_back(std::move(*r.schedule));
    }
  }

  std::vector<CaseBinding> roverBindings() {
    return {
        {"best", Watts::fromWatts(14.9), problems_[0].get(), schedules_[0], 2},
        {"typical", 12_W, problems_[1].get(), schedules_[1], 2},
        {"worst", Watts::zero(), problems_[2].get(), schedules_[2], 2},
    };
  }

  ExecutionResult run(const FaultPlan* plan, ContingencyOptions contingency,
                      int targetSteps = 4, bool traceTasks = false,
                      obs::MetricsRegistry* metrics = nullptr) {
    RuntimeExecutor executor(rover::missionSolarProfile(),
                             rover::missionBattery(), roverBindings());
    ExecutorConfig config;
    config.targetSteps = targetSteps;
    config.traceTasks = traceTasks;
    config.faults = plan;
    config.contingency = contingency;
    if (metrics != nullptr) config.obs.metrics = metrics;
    return executor.run(config);
  }

  std::vector<std::unique_ptr<Problem>> problems_;
  std::vector<Schedule> schedules_;
};

// ------------------------------------------------------------ determinism

TEST_F(DegradedRover, CleanMissionIgnoresAnEmptyPlan) {
  const FaultPlan empty;
  const ExecutionResult clean = run(nullptr, {}, 8, true);
  const ExecutionResult withEmpty = run(&empty, {}, 8, true);
  EXPECT_EQ(renderTrace(clean), renderTrace(withEmpty));
  EXPECT_EQ(clean.batteryDrawn, withEmpty.batteryDrawn);
  EXPECT_EQ(clean.finishedAt, withEmpty.finishedAt);
}

TEST_F(DegradedRover, ScriptedPlanReplaysToAnIdenticalEventTrace) {
  FaultPlan plan;
  plan.faults.push_back(FaultPlan::overrun("drive1", 0, 150, Duration(3)));
  plan.faults.push_back(FaultPlan::failure("hazard2", 1, 1));
  plan.faults.push_back(
      FaultPlan::solarTransient(Interval(Time(40), Time(120)), 60));
  plan.faults.push_back(FaultPlan::batteryDerate(Time(60), 80, 90));
  const ContingencyOptions all = ContingencyOptions::all();
  const ExecutionResult a = run(&plan, all, 8, true);
  const ExecutionResult b = run(&plan, all, 8, true);
  EXPECT_EQ(renderTrace(a), renderTrace(b));
  EXPECT_EQ(a.batteryDrawn, b.batteryDrawn);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.faultsInjected, b.faultsInjected);
}

// -------------------------------------------------------- fault injection

TEST_F(DegradedRover, OverrunStretchesTheIteration) {
  FaultPlan plan;
  // drive2 ends the iteration, so stretching it must move the finish.
  plan.faults.push_back(FaultPlan::overrun("drive2", 0, 200));
  const ExecutionResult clean = run(nullptr, {}, 2);
  const ExecutionResult hit = run(&plan, {}, 2);
  EXPECT_EQ(hit.faultsInjected, 1);
  EXPECT_GT(hit.finishedAt, clean.finishedAt);
  bool sawOverrun = false;
  for (const Event& e : hit.trace) {
    sawOverrun |= e.kind == EventKind::kTaskOverrun;
  }
  EXPECT_TRUE(sawOverrun);
}

TEST_F(DegradedRover, FailureOnACriticalTaskWithoutRetryLosesTheMission) {
  FaultPlan plan;
  plan.faults.push_back(FaultPlan::failure("drive1", 0, 1));
  const ExecutionResult r = run(&plan, {}, 4);
  EXPECT_TRUE(r.unrecoverable);
  EXPECT_FALSE(r.complete);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.back().kind, EventKind::kTaskUnrecoverable);
}

TEST_F(DegradedRover, BatteryDerateShrinksTheBudgetMidMission) {
  FaultPlan plan;
  // Cut the battery to a sliver right away: the worst-case phase at 9 W
  // solar must then deplete it.
  plan.faults.push_back(FaultPlan::batteryDerate(Time::zero(), 1, 100));
  const ExecutionResult r = run(&plan, {}, 48);
  EXPECT_TRUE(r.batteryDepleted);
  EXPECT_FALSE(r.complete);
  bool sawDerate = false;
  for (const Event& e : r.trace) {
    sawDerate |= e.kind == EventKind::kBatteryDerated;
  }
  EXPECT_TRUE(sawDerate);
}

// ------------------------------------------------------- contingency loop

TEST_F(DegradedRover, RetryRecoversATransientFailure) {
  FaultPlan plan;
  plan.faults.push_back(FaultPlan::failure("drive1", 0, 1));
  ContingencyOptions c;
  c.retry = true;
  const ExecutionResult r = run(&plan, c, 4);
  EXPECT_TRUE(r.complete);
  EXPECT_GE(r.retries, 1);
  bool sawFailed = false, sawRetried = false;
  for (const Event& e : r.trace) {
    sawFailed |= e.kind == EventKind::kTaskFailed;
    sawRetried |= e.kind == EventKind::kTaskRetried;
  }
  EXPECT_TRUE(sawFailed);
  EXPECT_TRUE(sawRetried);
}

TEST_F(DegradedRover, CriticalTaskExhaustingItsRetriesIsUnrecoverable) {
  FaultPlan plan;
  plan.faults.push_back(FaultPlan::failure("drive1", 0, 5));
  ContingencyOptions c;
  c.retry = true;
  c.maxRetries = 2;  // 3 attempts < 5 failures
  const ExecutionResult r = run(&plan, c, 4);
  EXPECT_TRUE(r.unrecoverable);
  EXPECT_FALSE(r.complete);
}

TEST_F(DegradedRover, ShedDropsADroppableTaskInsteadOfDying) {
  FaultPlan plan;
  plan.faults.push_back(FaultPlan::failure("heat_wheel1", 0, 3));
  ContingencyOptions c;
  c.shed = true;  // no retry: the single allowed attempt cannot absorb 3
  const ExecutionResult r = run(&plan, c, 4);
  EXPECT_TRUE(r.complete) << "shedding a heater must not end the mission";
  EXPECT_GE(r.shedTasks, 1);
  bool sawShed = false;
  for (const Event& e : r.trace) {
    sawShed |= e.kind == EventKind::kTaskShed;
  }
  EXPECT_TRUE(sawShed);
}

TEST_F(DegradedRover, WatchdogFlagsABlownIteration) {
  FaultPlan plan;
  plan.faults.push_back(FaultPlan::overrun("drive1", 0, 300, Duration(20)));
  ContingencyOptions c;
  c.watchdogSlackPct = 10;
  const ExecutionResult r = run(&plan, c, 2);
  EXPECT_GE(r.deadlineMisses, 1);
  bool sawMiss = false;
  for (const Event& e : r.trace) {
    sawMiss |= e.kind == EventKind::kDeadlineMissed;
  }
  EXPECT_TRUE(sawMiss);
}

TEST_F(DegradedRover, ReplanRespondsToASolarCollapse) {
  // A deep cloud over the first iterations forces demand above
  // solar + battery; replan must engage (and the full closed loop should
  // still deliver the mission).
  FaultPlan plan;
  plan.faults.push_back(
      FaultPlan::solarTransient(Interval(Time(10), Time(200)), 40));
  const ExecutionResult r = run(&plan, ContingencyOptions::all(), 8);
  EXPECT_GE(r.replans + r.replanFailures, 1)
      << "brownout must at least attempt a repair";
  EXPECT_GT(r.brownouts, 0);
  EXPECT_TRUE(r.complete);
}

TEST_F(DegradedRover, ClosedLoopSurvivesWhereOpenLoopDies) {
  // The ISSUE's integration scenario: same fault stream, contingency off
  // vs on. Off dies on the failed critical task; on completes every step.
  FaultPlan plan;
  plan.faults.push_back(FaultPlan::failure("drive2", 0, 1));
  plan.faults.push_back(FaultPlan::overrun("hazard1", 1, 150));
  const ExecutionResult off = run(&plan, {}, 8);
  const ExecutionResult on = run(&plan, ContingencyOptions::all(), 8);
  EXPECT_FALSE(off.complete);
  EXPECT_TRUE(on.complete);
  EXPECT_GT(on.steps, off.steps);
}

TEST_F(DegradedRover, ExportsFaultAndContingencyMetrics) {
  FaultPlan plan;
  plan.faults.push_back(FaultPlan::failure("drive1", 0, 1));
  plan.faults.push_back(FaultPlan::overrun("hazard1", 0, 150));
  obs::MetricsRegistry metrics;
  ContingencyOptions c;
  c.retry = true;
  const ExecutionResult r = run(&plan, c, 4, false, &metrics);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(metrics.counter("fault.injected"),
            static_cast<std::uint64_t>(r.faultsInjected));
  EXPECT_EQ(metrics.counter("contingency.retries"),
            static_cast<std::uint64_t>(r.retries));
}

// --------------------------------------------------------- edge cases

TEST_F(DegradedRover, AbortOnBrownoutAtIterationStartStallsExplicitly) {
  // No sun and a 1 W battery: the very first segment browns out, so with
  // abortOnBrownout every iteration would abort at its first instant and
  // replay forever. The stall guard must end the mission at t=0 with an
  // explicit event instead of spinning to maxIterations.
  RuntimeExecutor executor(SolarSource({{Time(0), Watts::zero()}}), Battery(1_W, 100_J),
                           roverBindings());
  ExecutorConfig config;
  config.targetSteps = 4;
  config.abortOnBrownout = true;
  config.traceTasks = false;
  const ExecutionResult r = executor.run(config);
  EXPECT_TRUE(r.stalled);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.steps, 0);
  EXPECT_EQ(r.finishedAt, Time::zero());
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.back().kind, EventKind::kStalled);
}

TEST_F(DegradedRover, BrownoutAbortExactlyAtASolarPhaseBoundary) {
  // The drop lands exactly on a slice boundary; the brownout must be
  // charged at the boundary instant and the abort must truncate there.
  SolarSource cliff({{Time(0), Watts::fromWatts(14.9)}, {Time(10), 2_W}});
  RuntimeExecutor executor(cliff, rover::missionBattery(), roverBindings());
  ExecutorConfig config;
  config.targetSteps = 2;
  config.abortOnBrownout = true;
  config.traceTasks = false;
  const ExecutionResult r = executor.run(config);
  ASSERT_GT(r.brownouts, 0);
  Time firstBrownout = Time::max();
  for (const Event& e : r.trace) {
    if (e.kind == EventKind::kBrownout) {
      firstBrownout = std::min(firstBrownout, e.at);
    }
  }
  EXPECT_EQ(firstBrownout, Time(10));
}

TEST(ExecutorEdgeTest, ExactCapacityFinishesWithoutDepletion) {
  // Battery that holds exactly the mission's draw: need == remaining on
  // the last slice is NOT a depletion (the comparison is strict).
  Problem p("exact");
  const ResourceId res = p.addResource("r");
  p.addTask("t", Duration(10), 3_W, res);
  p.setMinPower(Watts::zero());
  const ScheduleResult sr = SerialScheduler(p).schedule();
  ASSERT_TRUE(sr.ok());
  // Solar 0: the 3 W task draws 3 mW-ticks/tick * 10 ticks = 30 W-ticks.
  const Energy exact = 3_W * Duration(10);
  RuntimeExecutor executor(
      SolarSource({{Time(0), Watts::zero()}}), Battery(5_W, exact),
      {CaseBinding{"only", Watts::zero(), &p, *sr.schedule, 1}});
  ExecutorConfig config;
  config.targetSteps = 1;
  config.traceTasks = false;
  const ExecutionResult r = executor.run(config);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.batteryDepleted);
  EXPECT_EQ(r.batteryDrawn, exact);
}

TEST(ExecutorEdgeTest, DepletionTimeFloorsTheAffordableTicks) {
  // remaining / rate leaves a remainder: the mission must die at
  // floor(remaining/rate) ticks, having drawn exactly rate * floor ticks.
  Problem p("floor");
  const ResourceId res = p.addResource("r");
  p.addTask("t", Duration(10), 3_W, res);
  p.setMinPower(Watts::zero());
  const ScheduleResult sr = SerialScheduler(p).schedule();
  ASSERT_TRUE(sr.ok());
  // 10 W-ticks at 3 W: affordable = floor(10/3) = 3 ticks, 9 W-ticks drawn.
  const Energy capacity = Energy::fromMilliwattTicks(10 * 1000);
  RuntimeExecutor executor(
      SolarSource({{Time(0), Watts::zero()}}), Battery(5_W, capacity),
      {CaseBinding{"only", Watts::zero(), &p, *sr.schedule, 1}});
  ExecutorConfig config;
  config.targetSteps = 1;
  config.traceTasks = false;
  const ExecutionResult r = executor.run(config);
  EXPECT_TRUE(r.batteryDepleted);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.finishedAt, Time(3));
  EXPECT_EQ(r.batteryDrawn, 3_W * Duration(3));
}

}  // namespace
}  // namespace paws::runtime
