#include "sched/min_power_scheduler.hpp"

#include <gtest/gtest.h>

#include "model/paper_example.hpp"
#include "sched/max_power_scheduler.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "support/pipeline.hpp"
#include "validate/validator.hpp"

namespace paws {
namespace {

using namespace paws::literals;

TEST(MinPowerSchedulerTest, PaperExampleImprovesUtilization) {
  // Fig. 5 -> Fig. 7: g moves into the gap at t=10; Ec drops from 15J to
  // 10J at the same finish time.
  const Problem p = makePaperExampleProblem();

  MaxPowerScheduler maxPower(p);
  const ScheduleResult before = maxPower.schedule();
  ASSERT_TRUE(before.ok());
  const Energy ecBefore = before.schedule->energyCost(p.minPower());
  const double rhoBefore = before.schedule->utilization(p.minPower());

  const ScheduleResult after =
      MinPowerScheduler(p).improve(*before.schedule, before.stats);
  ASSERT_TRUE(after.ok()) << after.message;
  const Energy ecAfter = after.schedule->energyCost(p.minPower());

  EXPECT_EQ(ecBefore, 15_J);
  EXPECT_EQ(ecAfter, 10_J);
  EXPECT_GT(after.schedule->utilization(p.minPower()), rhoBefore);
  EXPECT_EQ(after.schedule->finish(), before.schedule->finish())
      << "same performance with a reduced energy cost";
  EXPECT_EQ(after.schedule->start(*p.findTask("g")), Time(10));
}

TEST(MinPowerSchedulerTest, ResultRemainsFullyValid) {
  const Problem p = makePaperExampleProblem();
  const ScheduleResult r = testutil::runPipelineOnce(p);
  ASSERT_TRUE(r.ok());
  const ScheduleValidator validator(p);
  EXPECT_TRUE(validator.validate(*r.schedule).valid());
}

TEST(MinPowerSchedulerTest, NeverDecreasesUtilization) {
  const Problem p = makePaperExampleProblem();
  for (const ScanOrder scan :
       {ScanOrder::kForward, ScanOrder::kBackward, ScanOrder::kRandom}) {
    for (const SlotHeuristic slot :
         {SlotHeuristic::kStartAtGap, SlotHeuristic::kFinishAtGapEnd,
          SlotHeuristic::kRandom}) {
      MinPowerOptions opt;
      opt.scanOrder = scan;
      opt.slotHeuristic = slot;
      opt.rotateHeuristics = false;
      opt.randomSeed = 7;
      MaxPowerScheduler maxPower(p);
      const ScheduleResult base = maxPower.schedule();
      ASSERT_TRUE(base.ok());
      const ScheduleResult r =
          MinPowerScheduler(p, opt).improve(*base.schedule, base.stats);
      ASSERT_TRUE(r.ok());
      EXPECT_GE(r.schedule->utilization(p.minPower()) + 1e-12,
                base.schedule->utilization(p.minPower()))
          << "scan " << static_cast<int>(scan) << " slot "
          << static_cast<int>(slot);
    }
  }
}

TEST(MinPowerSchedulerTest, FullUtilizationShortCircuits) {
  // A single task drawing exactly Pmin: utilization 1 from the start.
  Problem p("full");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("only", 10_s, 5_W, r1);
  p.setMaxPower(8_W);
  p.setMinPower(5_W);
  const ScheduleResult r = testutil::runPipelineOnce(p);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.schedule->utilization(p.minPower()), 1.0);
  EXPECT_EQ(r.stats.improvements, 0u);
}

TEST(MinPowerSchedulerTest, ZeroPminIsConventionalSpecialCase) {
  Problem p("nopmin");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("t1", 5_s, 4_W, r1);
  p.addTask("t2", 5_s, 4_W, r1);
  p.setMaxPower(10_W);
  // Pmin defaults to 0: utilization is 1 by definition; nothing to do.
  const ScheduleResult r = testutil::runPipelineOnce(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.stats.improvements, 0u);
}

TEST(MinPowerSchedulerTest, GapFillingRespectsPmax) {
  // Filling the gap by moving 'heavy' under 'late' would spike: the move
  // must be rejected even though it would raise utilization.
  Problem p("guard");
  const ResourceId r1 = p.addResource("r1");
  const ResourceId r2 = p.addResource("r2");
  const TaskId heavy = p.addTask("heavy", 5_s, 7_W, r1);
  const TaskId late = p.addTask("late", 5_s, 7_W, r2);
  p.release(late, Time(5));
  p.pin(late, Time(5));
  p.setMaxPower(12_W);
  p.setMinPower(10_W);
  const ScheduleResult r = testutil::runPipelineOnce(p);
  ASSERT_TRUE(r.ok()) << r.message;
  const ScheduleValidator validator(p);
  EXPECT_TRUE(validator.validate(*r.schedule).powerValid());
  EXPECT_EQ(r.schedule->start(heavy), Time(0))
      << "moving heavy under late would exceed Pmax";
}

TEST(MinPowerSchedulerTest, ImproveRequiresPowerValidInput) {
  const Problem p = makePaperExampleProblem();
  // Hand the improver a spiking schedule: all tasks at ASAP including the
  // spike at [10,15). It is refused with a structured status, not an abort.
  std::vector<Time> starts(p.numVertices(), Time::zero());
  const char* names[] = {"a", "b", "c", "d", "e", "f", "g", "h", "i"};
  const Time asap[] = {Time(0),  Time(5),  Time(10), Time(5), Time(20),
                       Time(10), Time(5),  Time(10), Time(20)};
  for (std::size_t i = 0; i < 9; ++i) {
    starts[p.findTask(names[i])->index()] = asap[i];
  }
  const Schedule spiky(&p, starts);
  MinPowerScheduler pipeline(p);
  const ScheduleResult r = pipeline.improve(spiky);
  EXPECT_EQ(r.status, SchedStatus::kInvalidInput);
  EXPECT_FALSE(r.schedule.has_value());
}

TEST(PowerAwareSchedulerTest, MultiTrialMatchesOrBeatsSingleRun) {
  const Problem p = makePaperExampleProblem();
  const ScheduleResult one = testutil::runPipelineOnce(p);
  ASSERT_TRUE(one.ok());

  PowerAwareOptions opt;
  opt.trials = 4;
  PowerAwareScheduler multi(p, opt);
  const ScheduleResult best = multi.schedule();
  ASSERT_TRUE(best.ok());
  EXPECT_LE(best.schedule->energyCost(p.minPower()),
            one.schedule->energyCost(p.minPower()));
}

TEST(PowerAwareSchedulerTest, FailurePropagatesDiagnostics) {
  Problem p("doomed");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("x", 5_s, 20_W, r1);
  p.setMaxPower(10_W);
  PowerAwareScheduler scheduler(p);
  const ScheduleResult r = scheduler.schedule();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.message.empty());
}

}  // namespace
}  // namespace paws
