// batteryRefine() — Khan & Vemuri's rate-capacity post-pass. The contract:
// never worse on effective drawn charge, still valid, never finishing
// later, an exact no-op under a linear model, and deterministic.
#include "sched/battery_refine.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "rover/rover_model.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "sched/schedule.hpp"

namespace paws {
namespace {

using namespace paws::literals;

BatteryTraits steepTraits() {
  BatteryTraits traits;
  traits.bands.push_back(RateBand{4_W, 2000});  // >4 W costs double
  return traits;
}

/// Two movable 3 W bursts stacked at t=0 plus a long 1 W tail that holds
/// the horizon open: spreading the bursts off each other halves their
/// effective cost under steepTraits() without moving the finish.
Problem stackedProblem() {
  Problem p("stacked");
  p.setMaxPower(20_W);
  p.setMinPower(Watts::zero());
  const ResourceId ra = p.addResource("ra");
  const ResourceId rb = p.addResource("rb");
  const ResourceId rc = p.addResource("rc");
  p.addTask("burst_a", Duration(5), 3_W, ra);
  p.addTask("burst_b", Duration(5), 3_W, rb);
  p.addTask("tail", Duration(20), 1_W, rc);
  return p;
}

Schedule stackedSchedule(const Problem& p) {
  // Vertex-indexed (anchor first): everything starts at t=0.
  return Schedule(&p, std::vector<Time>(p.numVertices(), Time::zero()));
}

TEST(EffectiveDrawnChargeTest, MatchesEnergyAboveUnderLinearModel) {
  const Problem p = stackedProblem();
  const Schedule s = stackedSchedule(p);
  EXPECT_EQ(effectiveDrawnCharge(s.powerProfile(), Watts::zero(),
                                 BatteryTraits{}),
            s.powerProfile().energyAbove(Watts::zero()));
  EXPECT_EQ(effectiveDrawnCharge(s.powerProfile(), 1_W, BatteryTraits{}),
            s.powerProfile().energyAbove(1_W));
}

TEST(EffectiveDrawnChargeTest, InflatesSegmentsAboveTheBand) {
  const Problem p = stackedProblem();
  const Schedule s = stackedSchedule(p);
  // Stacked: [0,5) draws 7 W (doubled to 14), [5,20) draws 1 W.
  EXPECT_EQ(effectiveDrawnCharge(s.powerProfile(), Watts::zero(),
                                 steepTraits()),
            14_W * Duration(5) + 1_W * Duration(15));
}

TEST(BatteryRefineTest, LinearModelIsAnExactNoOp) {
  const Problem p = stackedProblem();
  const Schedule s = stackedSchedule(p);
  BatteryRefineOptions options;  // default-constructed model = linear
  BatteryRefineStats stats;
  const Schedule refined = batteryRefine(p, s, options, &stats);
  EXPECT_EQ(refined.starts(), s.starts());
  EXPECT_EQ(stats.moves, 0u);
  EXPECT_EQ(stats.saved, Energy::zero());
}

TEST(BatteryRefineTest, SpreadsAStackedScheduleStrictlyBetter) {
  const Problem p = stackedProblem();
  const Schedule s = stackedSchedule(p);
  BatteryRefineOptions options;
  options.model = steepTraits();
  BatteryRefineStats stats;
  const Schedule refined = batteryRefine(p, s, options, &stats);
  const Energy before =
      effectiveDrawnCharge(s.powerProfile(), p.minPower(), options.model);
  const Energy after = effectiveDrawnCharge(refined.powerProfile(),
                                            p.minPower(), options.model);
  EXPECT_LT(after, before);
  EXPECT_GE(stats.moves, 1u);
  EXPECT_EQ(stats.saved, before - after);
  // The contract: no later finish, still Pmax-valid.
  EXPECT_LE(refined.finish(), s.finish());
  EXPECT_FALSE(refined.powerProfile().firstSpike(p.maxPower()).has_value());
  // Fully unstacked bursts never cross the 4 W band.
  EXPECT_EQ(after, s.powerProfile().energyAbove(p.minPower()));
}

TEST(BatteryRefineTest, IsDeterministic) {
  const Problem p = stackedProblem();
  const Schedule s = stackedSchedule(p);
  BatteryRefineOptions options;
  options.model = steepTraits();
  const Schedule a = batteryRefine(p, s, options);
  const Schedule b = batteryRefine(p, s, options);
  EXPECT_EQ(a.starts(), b.starts());
}

TEST(BatteryRefineTest, NeverWorsensTheRoverSchedules) {
  for (const rover::RoverCase c :
       {rover::RoverCase::kBest, rover::RoverCase::kTypical,
        rover::RoverCase::kWorst}) {
    const Problem p = rover::makeRoverProblem(c, 1);
    PowerAwareScheduler scheduler(p);
    const ScheduleResult r = scheduler.schedule();
    ASSERT_TRUE(r.ok());
    BatteryRefineOptions options;
    options.model = rover::missionBatteryTraits();
    const Schedule refined = batteryRefine(p, *r.schedule, options);
    EXPECT_LE(effectiveDrawnCharge(refined.powerProfile(), p.minPower(),
                                   options.model),
              effectiveDrawnCharge(r.schedule->powerProfile(), p.minPower(),
                                   options.model))
        << toString(c);
    EXPECT_LE(refined.finish(), r.schedule->finish()) << toString(c);
    EXPECT_FALSE(
        refined.powerProfile().firstSpike(p.maxPower()).has_value())
        << toString(c);
  }
}

TEST(BatteryRefineTest, RefinedPipelineResultIsAFixedPoint) {
  // The pass runs on a pipeline result, as the fault-campaign bench does.
  const Problem p = rover::makeRoverProblem(rover::RoverCase::kWorst, 1);
  const ScheduleResult r = PowerAwareScheduler(p).schedule();
  ASSERT_TRUE(r.ok());
  BatteryRefineOptions refine;
  refine.model = rover::missionBatteryTraits();
  const Schedule refined = batteryRefine(p, *r.schedule, refine);
  // The refined schedule is a local optimum: a second pass finds nothing.
  BatteryRefineStats stats;
  const Schedule again = batteryRefine(p, refined, refine, &stats);
  EXPECT_EQ(again.starts(), refined.starts());
  EXPECT_EQ(stats.moves, 0u);
}

TEST(BatteryRefineTest, DefaultOptionsLeaveTheSchedulerByteIdentical) {
  const Problem p = rover::makeRoverProblem(rover::RoverCase::kTypical, 1);
  PowerAwareScheduler plain(p);
  const ScheduleResult a = plain.schedule();
  PowerAwareScheduler withDefault(p, PowerAwareOptions{});
  const ScheduleResult b = withDefault.schedule();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.schedule->starts(), b.schedule->starts());
}

}  // namespace
}  // namespace paws
