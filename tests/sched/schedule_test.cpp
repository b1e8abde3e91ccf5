#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include "base/check.hpp"
#include "power/profile_engine.hpp"

namespace paws {
namespace {

using namespace paws::literals;

Problem makeProblem() {
  Problem p("sched");
  const ResourceId cpu = p.addResource("cpu");
  const ResourceId dsp = p.addResource("dsp");
  p.addTask("a", 5_s, 6_W, cpu);   // TaskId 1
  p.addTask("b", 10_s, 4_W, dsp);  // TaskId 2
  p.setBackgroundPower(1_W);
  return p;
}

TEST(ScheduleTest, BasicAccessors) {
  const Problem p = makeProblem();
  const Schedule s(&p, {Time(0), Time(0), Time(5)});
  EXPECT_EQ(s.start(TaskId(1)), Time(0));
  EXPECT_EQ(s.end(TaskId(1)), Time(5));
  EXPECT_EQ(s.interval(TaskId(2)), Interval(Time(5), Time(15)));
  EXPECT_EQ(s.finish(), Time(15));
}

TEST(ScheduleTest, RejectsWrongSizeOrShiftedAnchor) {
  const Problem p = makeProblem();
  EXPECT_THROW(Schedule(&p, {Time(0), Time(0)}), CheckError);
  EXPECT_THROW(Schedule(&p, {Time(1), Time(0), Time(0)}), CheckError);
}

TEST(ScheduleTest, ActiveAt) {
  // The tasks of a schedule running at t, asked the way max-power's victim
  // scan asks: through a profile engine seeded with the schedule's starts.
  const Problem p = makeProblem();
  const Schedule s(&p, {Time(0), Time(0), Time(3)});
  power::ProfileEngine pe(p.backgroundPower(), p.minPower(), p.maxPower());
  pe.rebuild(p, s.starts());
  EXPECT_EQ(pe.activeAt(Time(0)), std::vector<TaskId>{TaskId(1)});
  const std::vector<TaskId> both{TaskId(1), TaskId(2)};
  EXPECT_EQ(pe.activeAt(Time(4)), both);
  EXPECT_EQ(pe.activeAt(Time(5)), std::vector<TaskId>{TaskId(2)});
  EXPECT_TRUE(pe.activeAt(Time(13)).empty());
}

TEST(ScheduleTest, ProfileIncludesBackground) {
  const Problem p = makeProblem();
  const Schedule s(&p, {Time(0), Time(0), Time(5)});
  const PowerProfile& prof = s.powerProfile();
  EXPECT_EQ(prof.valueAt(Time(2)), 7_W);   // a + background
  EXPECT_EQ(prof.valueAt(Time(10)), 5_W);  // b + background
  EXPECT_EQ(prof.finish(), Time(15));
}

TEST(ScheduleTest, EnergyCostAndUtilization) {
  const Problem p = makeProblem();
  const Schedule s(&p, {Time(0), Time(0), Time(5)});
  // Profile: [0,5)=7W, [5,15)=5W. Above 6W: 1W*5s.
  EXPECT_EQ(s.energyCost(6_W), Energy::fromMilliwattTicks(5000));
  // Capped at 6: 6*5 + 5*10 = 80 over 6*15 = 90.
  EXPECT_DOUBLE_EQ(s.utilization(6_W), 80.0 / 90.0);
}

TEST(ScheduleTest, OverlapOnPurposeStillProfilesCorrectly) {
  // Schedule is just data: even resource-conflicting assignments produce a
  // well-defined profile (the validator is the one to flag them).
  const Problem p = makeProblem();
  const Schedule s(&p, {Time(0), Time(0), Time(0)});
  EXPECT_EQ(s.powerProfile().valueAt(Time(0)), 11_W);
}

TEST(ScheduleTest, FinishOfEmptyProblem) {
  Problem p("empty");
  const Schedule s(&p, {Time(0)});
  EXPECT_EQ(s.finish(), Time(0));
  EXPECT_TRUE(s.powerProfile().empty());
}

}  // namespace
}  // namespace paws
