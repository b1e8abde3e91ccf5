#include "sched/repair.hpp"

#include <gtest/gtest.h>

#include "model/paper_example.hpp"
#include "rover/rover_model.hpp"
#include "support/pipeline.hpp"
#include "validate/validator.hpp"

namespace paws {
namespace {

using namespace paws::literals;

Schedule pipelineSchedule(const Problem& p) {
  const ScheduleResult r = testutil::runPipelineOnce(p);
  EXPECT_TRUE(r.ok()) << r.message;
  return *r.schedule;
}

TEST(RepairTest, NoChangeRepairKeepsHistoryAndStaysValid) {
  const Problem p = makePaperExampleProblem();
  const Schedule original = pipelineSchedule(p);
  const RepairInput input{&p, &original, Time(12)};
  const ScheduleResult repaired = repairSchedule(input);
  ASSERT_TRUE(repaired.ok()) << repaired.message;
  for (TaskId v : p.taskIds()) {
    if (original.start(v) < Time(12)) {
      EXPECT_EQ(repaired.schedule->start(v), original.start(v))
          << p.task(v).name;
    } else {
      EXPECT_GE(repaired.schedule->start(v), Time(12)) << p.task(v).name;
    }
  }
  EXPECT_TRUE(ScheduleValidator(p).validate(*repaired.schedule).valid());
}

TEST(RepairTest, BudgetDropMidFlightSerializesTheFuture) {
  // Rover typical case: at t=20 the budget collapses to the worst-case
  // 19 W (dust storm). The overlapped future must be re-planned serially;
  // history (starts < 20) is frozen.
  const Problem typical = rover::makeRoverProblem(rover::RoverCase::kTypical);
  const Schedule original = pipelineSchedule(typical);

  Problem stormy(typical);
  stormy.setMaxPower(19_W);
  const RepairInput input{&stormy, &original, Time(20)};
  const ScheduleResult repaired = repairSchedule(input);
  ASSERT_TRUE(repaired.ok()) << repaired.message;

  for (TaskId v : typical.taskIds()) {
    if (original.start(v) < Time(20)) {
      EXPECT_EQ(repaired.schedule->start(v), original.start(v));
    }
  }
  // The repaired future respects the NEW budget: no spikes after t=20.
  const PowerProfile& profile = repaired.schedule->powerProfile();
  for (const Interval& spike : profile.spikes(19_W)) {
    EXPECT_LT(spike.begin(), Time(20))
        << "only historical spikes may remain";
  }
  // Serial future is slower than the undisturbed plan.
  EXPECT_GE(repaired.schedule->finish(), original.finish());
}

TEST(RepairTest, RelaxedBudgetCanOnlyHelpTheFuture) {
  const Problem worst = rover::makeRoverProblem(rover::RoverCase::kWorst);
  const Schedule original = pipelineSchedule(worst);

  Problem sunny(worst);
  sunny.setMaxPower(Watts::fromWatts(24.9));
  sunny.setMinPower(Watts::fromWatts(14.9));
  const RepairInput input{&sunny, &original, Time(10)};
  const ScheduleResult repaired = repairSchedule(input);
  ASSERT_TRUE(repaired.ok()) << repaired.message;
  EXPECT_LE(repaired.schedule->finish(), original.finish())
      << "extra headroom must not slow the mission down";
  EXPECT_TRUE(
      ScheduleValidator(sunny).validate(*repaired.schedule).powerValid());
}

TEST(RepairTest, ImpossibleNewBudgetFailsCleanly) {
  const Problem p = makePaperExampleProblem();
  const Schedule original = pipelineSchedule(p);
  Problem strangled(p);
  strangled.setMaxPower(5_W);  // even single tasks exceed this
  const RepairInput input{&strangled, &original, Time(10)};
  const ScheduleResult repaired = repairSchedule(input);
  EXPECT_FALSE(repaired.ok());
  EXPECT_EQ(repaired.status, SchedStatus::kPowerInfeasible);
}

TEST(RepairTest, RepairAtTimeZeroIsAFullReschedule) {
  const Problem p = makePaperExampleProblem();
  const Schedule original = pipelineSchedule(p);
  const RepairInput input{&p, &original, Time(0)};
  const ScheduleResult repaired = repairSchedule(input);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(ScheduleValidator(p).validate(*repaired.schedule).valid());
}

TEST(RepairTest, RejectsMismatchedProblems) {
  const Problem p = makePaperExampleProblem();
  const Schedule original = pipelineSchedule(p);
  Problem other("other");
  const ResourceId r1 = other.addResource("r1");
  other.addTask("x", 1_s, 1_W, r1);
  const RepairInput input{&other, &original, Time(5)};
  // Mismatched inputs are a structured error, not an abort: a mid-flight
  // repair request must never take the executor down with it.
  const ScheduleResult repaired = repairSchedule(input);
  EXPECT_FALSE(repaired.ok());
  EXPECT_EQ(repaired.status, SchedStatus::kInvalidInput);
  EXPECT_NE(repaired.message.find("task(s)"), std::string::npos)
      << repaired.message;
}

TEST(RepairTest, RejectsRenamedTasks) {
  const Problem p = makePaperExampleProblem();
  const Schedule original = pipelineSchedule(p);
  // Same shape, different task names: the count check passes, the per-task
  // name check must catch it.
  Problem renamed("renamed");
  const ResourceId rr = renamed.addResource("r");
  bool first = true;
  for (TaskId v : p.taskIds()) {
    const Task& t = p.task(v);
    renamed.addTask(first ? "impostor" : t.name, t.delay, t.power, rr);
    first = false;
  }
  const RepairInput input{&renamed, &original, Time(5)};
  const ScheduleResult repaired = repairSchedule(input);
  EXPECT_FALSE(repaired.ok());
  EXPECT_EQ(repaired.status, SchedStatus::kInvalidInput);
  EXPECT_NE(repaired.message.find("impostor"), std::string::npos)
      << repaired.message;
}

TEST(RepairTest, RejectsNullInputs) {
  const Problem p = makePaperExampleProblem();
  const Schedule original = pipelineSchedule(p);
  const ScheduleResult noProblem = repairSchedule({nullptr, &original, Time(5)});
  EXPECT_EQ(noProblem.status, SchedStatus::kInvalidInput);
  const ScheduleResult noSchedule = repairSchedule({&p, nullptr, Time(5)});
  EXPECT_EQ(noSchedule.status, SchedStatus::kInvalidInput);
}

}  // namespace
}  // namespace paws
