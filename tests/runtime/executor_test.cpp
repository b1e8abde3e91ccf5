#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include "rover/plans.hpp"
#include "rover/rover_model.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "sched/serial_scheduler.hpp"

namespace paws::runtime {
namespace {

using namespace paws::literals;
using rover::RoverCase;

/// Fixture owning the per-case problems and schedules for the rover.
class RoverExecution : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const RoverCase c :
         {RoverCase::kBest, RoverCase::kTypical, RoverCase::kWorst}) {
      problems_.push_back(
          std::make_unique<Problem>(rover::makeRoverProblem(c, 1)));
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

  std::vector<std::unique_ptr<Problem>> problems_;
  std::vector<Schedule> schedules_;
};

TEST_F(RoverExecution, CompletesTheMission) {
  RuntimeExecutor executor(rover::missionSolarProfile(),
                           rover::missionBattery(), roverBindings());
  ExecutorConfig config;
  config.targetSteps = 48;
  config.traceTasks = false;
  const ExecutionResult r = executor.run(config);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.steps, 48);
  EXPECT_FALSE(r.batteryDepleted);
  EXPECT_GT(r.batteryDrawn, Energy::zero());
  // Must beat the fixed 75s-per-iteration baseline's 1800 s.
  EXPECT_LT(r.finishedAt, Time(1800));
  // Trace bookends.
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.front().kind, EventKind::kIterationStarted);
  EXPECT_EQ(r.trace.back().kind, EventKind::kMissionComplete);
}

TEST_F(RoverExecution, SelectsScheduleByCurrentSolarLevel) {
  RuntimeExecutor executor(rover::missionSolarProfile(),
                           rover::missionBattery(), roverBindings());
  ExecutorConfig config;
  config.targetSteps = 48;
  config.traceTasks = false;
  const ExecutionResult r = executor.run(config);
  bool sawBest = false, sawLater = false;
  for (const Event& e : r.trace) {
    if (e.kind != EventKind::kScheduleSelected) continue;
    if (e.at < Time(600)) {
      EXPECT_EQ(e.detail, "best");
      sawBest = true;
    } else {
      EXPECT_NE(e.detail, "best");
      sawLater = true;
    }
  }
  EXPECT_TRUE(sawBest);
  EXPECT_TRUE(sawLater);
}

TEST_F(RoverExecution, TaskTraceIsOrderedAndPaired) {
  RuntimeExecutor executor(SolarSource({{Time(0), Watts::fromWatts(14.9)}}),
                           rover::missionBattery(), roverBindings());
  ExecutorConfig config;
  config.targetSteps = 2;  // one iteration
  config.traceTasks = true;
  const ExecutionResult r = executor.run(config);
  int starts = 0, finishes = 0;
  Time last = Time::zero();
  for (const Event& e : r.trace) {
    EXPECT_GE(e.at, last - Duration(0));
    if (e.kind == EventKind::kTaskStarted) ++starts;
    if (e.kind == EventKind::kTaskFinished) ++finishes;
  }
  EXPECT_EQ(starts, 11);  // 5 heats + 2x(hazard, steer, drive)
  EXPECT_EQ(finishes, 11);
}

TEST_F(RoverExecution, SolarDropMidIterationCausesBrownout) {
  // Run the best-case schedule into a cliff: solar collapses to 2 W at
  // t=2, mid-heating, far below what the overlapped heats need even with
  // the battery's 10 W (the late-iteration tasks alone would fit).
  SolarSource cliff({{Time(0), Watts::fromWatts(14.9)}, {Time(2), 2_W}});
  RuntimeExecutor executor(cliff, rover::missionBattery(), roverBindings());
  ExecutorConfig config;
  config.targetSteps = 2;
  config.traceTasks = false;
  const ExecutionResult r = executor.run(config);
  EXPECT_GT(r.brownouts, 0);
  EXPECT_TRUE(r.complete) << "push-through policy still finishes";
}

TEST_F(RoverExecution, AbortOnBrownoutStopsTheIteration) {
  SolarSource cliff({{Time(0), Watts::fromWatts(14.9)}, {Time(2), 2_W}});
  RuntimeExecutor executor(cliff, rover::missionBattery(), roverBindings());
  ExecutorConfig config;
  config.targetSteps = 2;
  config.abortOnBrownout = true;
  config.traceTasks = false;
  config.maxIterations = 4;
  const ExecutionResult r = executor.run(config);
  EXPECT_GT(r.brownouts, 0);
  EXPECT_FALSE(r.complete) << "aborted iterations grant no steps";
}

TEST_F(RoverExecution, BatteryDepletionEndsTheMissionMidIteration) {
  RuntimeExecutor executor(SolarSource({{Time(0), 9_W}}), Battery(10_W, 100_J),
                           roverBindings());
  ExecutorConfig config;
  config.targetSteps = 48;
  config.traceTasks = false;
  const ExecutionResult r = executor.run(config);
  EXPECT_TRUE(r.batteryDepleted);
  EXPECT_FALSE(r.complete);
  EXPECT_LE(r.batteryDrawn, 100_J);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.back().kind, EventKind::kBatteryDepleted);
}

TEST_F(RoverExecution, NoBindingForDarknessFailsCleanly) {
  std::vector<CaseBinding> bindings = roverBindings();
  bindings.erase(bindings.begin() + 2);  // drop the catch-all worst case
  bindings[1].solarLevel = 12_W;
  SolarSource dusk({{Time(0), Watts::fromWatts(14.9)}, {Time(100), 5_W}});
  RuntimeExecutor executor(dusk, rover::missionBattery(),
                           std::move(bindings));
  ExecutorConfig config;
  config.targetSteps = 48;
  config.traceTasks = false;
  const ExecutionResult r = executor.run(config);
  EXPECT_FALSE(r.complete);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.back().kind, EventKind::kNoFeasibleSchedule);
}

TEST_F(RoverExecution, EnergyAccountingMatchesPlanLevelSimulator) {
  // Constant 9 W solar: the runtime integration must agree exactly with
  // the per-iteration plan accounting (cost = Ec per iteration).
  RuntimeExecutor executor(SolarSource({{Time(0), 9_W}}), rover::missionBattery(),
                           roverBindings());
  ExecutorConfig config;
  config.targetSteps = 8;  // four worst-case iterations
  config.traceTasks = false;
  const ExecutionResult r = executor.run(config);
  ASSERT_TRUE(r.complete);
  const Energy perIteration = schedules_[2].energyCost(9_W);
  EXPECT_EQ(r.batteryDrawn,
            Energy::fromMilliwattTicks(4 * perIteration.milliwattTicks()));
}

TEST(RuntimeExecutorTest, RejectsEmptyBindings) {
  EXPECT_THROW(RuntimeExecutor(SolarSource({{Time(0), 9_W}}), Battery(10_W, 100_J), {}),
               CheckError);
}

TEST(EventKindTest, Names) {
  EXPECT_STREQ(toString(EventKind::kBrownout), "brownout");
  EXPECT_STREQ(toString(EventKind::kMissionComplete), "mission-complete");
}

}  // namespace
}  // namespace paws::runtime
