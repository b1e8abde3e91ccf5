// Behavior-level tests for the min-power heuristic knobs: the slot
// heuristics must place fillers at provably different targets, moves must
// be accepted only on strict utilization gains, and unbounded-slack tasks
// must be usable as fillers (regression for a signed-overflow bug in the
// slot-window arithmetic).
#include <gtest/gtest.h>

#include "support/pipeline.hpp"
#include "validate/validator.hpp"

namespace paws {
namespace {

using namespace paws::literals;

// ASAP wastes the filler on top of 'fixed' (11 W, capped at Pmin anyway);
// the gap [10,14) between 'fixed' and the pinned 'wall' is fillable. The
// filler (8 s) is longer than the gap (4 s), which is exactly the regime
// where start-at-gap (sigma' = 10) and finish-at-gap-end (sigma' = 6)
// differ. 'sink' pins the filler's slack to 10 without touching power.
Problem gapProblem() {
  Problem p("gap");
  const ResourceId r1 = p.addResource("r1");
  const ResourceId r2 = p.addResource("r2");
  const ResourceId r3 = p.addResource("r3");
  const ResourceId r4 = p.addResource("r4");
  const TaskId fixed = p.addTask("fixed", 10_s, 6_W, r1);
  const TaskId filler = p.addTask("filler", 8_s, 5_W, r2);
  const TaskId wall = p.addTask("wall", 4_s, 6_W, r3);
  const TaskId sink = p.addTask("sink", 4_s, Watts::zero(), r4);
  p.pin(fixed, Time(0));
  p.pin(wall, Time(14));
  p.pin(sink, Time(18));
  p.minSeparation(filler, sink, 8_s);  // slack(filler) = 18 - 8 = 10
  p.setMaxPower(12_W);
  p.setMinPower(4_W);
  return p;
}

ScheduleResult run(const Problem& p, SlotHeuristic slot,
                   ScanOrder scan = ScanOrder::kForward,
                   std::uint32_t passes = 1, std::uint32_t seed = 1) {
  PowerAwareOptions opt;
  opt.minPower.slotHeuristic = slot;
  opt.minPower.scanOrder = scan;
  opt.minPower.rotateHeuristics = false;
  opt.minPower.maxPasses = passes;
  opt.minPower.randomSeed = seed;
  ScheduleResult r = testutil::runPipelineOnce(p, opt);
  EXPECT_TRUE(r.ok()) << r.message;
  if (r.ok()) {
    EXPECT_TRUE(ScheduleValidator(p).validate(*r.schedule).valid());
  }
  return r;
}

TEST(MinPowerDetailsTest, AsapOverlapsTheFillerWastefully) {
  const Problem p = gapProblem();
  const ScheduleResult r = run(p, SlotHeuristic::kStartAtGap,
                               ScanOrder::kForward, /*passes=*/0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.schedule->start(*p.findTask("filler")), Time(0))
      << "no improvement passes -> ASAP placement on top of 'fixed'";
}

TEST(MinPowerDetailsTest, StartAtGapDelaysToTheGapStart) {
  const Problem p = gapProblem();
  const ScheduleResult r = run(p, SlotHeuristic::kStartAtGap);
  EXPECT_EQ(r.schedule->start(*p.findTask("filler")), Time(10));
}

TEST(MinPowerDetailsTest, FinishAtGapEndParksAgainstTheWall) {
  const Problem p = gapProblem();
  const ScheduleResult r = run(p, SlotHeuristic::kFinishAtGapEnd);
  EXPECT_EQ(r.schedule->start(*p.findTask("filler")), Time(6))
      << "filler [6,14) ends exactly where the gap ends";
}

TEST(MinPowerDetailsTest, BothSlotsReachTheSameUtilization) {
  // Different placements, same filled area: the paper's observation that
  // slot choice alters later options rather than the local gain.
  const Problem p = gapProblem();
  const ScheduleResult a = run(p, SlotHeuristic::kStartAtGap);
  const ScheduleResult b = run(p, SlotHeuristic::kFinishAtGapEnd);
  ASSERT_NE(a.schedule->start(*p.findTask("filler")),
            b.schedule->start(*p.findTask("filler")));
  EXPECT_DOUBLE_EQ(a.schedule->utilization(p.minPower()),
                   b.schedule->utilization(p.minPower()));
  EXPECT_EQ(a.schedule->energyCost(p.minPower()),
            b.schedule->energyCost(p.minPower()));
}

TEST(MinPowerDetailsTest, RandomSlotStaysWithinTheLegalWindow) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    const Problem p = gapProblem();
    const ScheduleResult r =
        run(p, SlotHeuristic::kRandom, ScanOrder::kForward, 1, seed);
    ASSERT_TRUE(r.ok());
    const Time at = r.schedule->start(*p.findTask("filler"));
    // Accepted moves land in [6, 10] (covering the gap start within
    // slack); a rejected move leaves the filler at 0.
    EXPECT_TRUE(at == Time(0) || (at >= Time(3) && at <= Time(10)))
        << "seed " << seed << " placed filler at " << at;
  }
}

TEST(MinPowerDetailsTest, UnboundedSlackTaskCanFillGaps) {
  // Regression: a task with NO outgoing constraints has Duration::max()
  // slack; the slot-window arithmetic must not overflow and must still
  // offer it as a filler.
  Problem p("free");
  const ResourceId r1 = p.addResource("r1");
  const ResourceId r2 = p.addResource("r2");
  const ResourceId r3 = p.addResource("r3");
  const TaskId fixed = p.addTask("fixed", 4_s, 6_W, r1);
  const TaskId filler = p.addTask("filler", 4_s, 5_W, r2);  // no out-edges
  const TaskId late = p.addTask("late", 4_s, 6_W, r3);
  p.pin(fixed, Time(0));
  p.pin(late, Time(12));
  p.setMaxPower(12_W);
  p.setMinPower(4_W);
  const ScheduleResult r = run(p, SlotHeuristic::kStartAtGap);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.schedule->start(filler), Time(4))
      << "the free filler must move off 'fixed' into the gap";
  (void)fixed;
}

TEST(MinPowerDetailsTest, MultiPassConvergesToTheSameResultHere) {
  // With one mobile task the fixpoint is reached in one pass; extra
  // passes must not churn.
  const Problem p = gapProblem();
  const ScheduleResult one = run(p, SlotHeuristic::kStartAtGap,
                                 ScanOrder::kForward, 1);
  const ScheduleResult many = run(p, SlotHeuristic::kStartAtGap,
                                  ScanOrder::kForward, 8);
  EXPECT_EQ(one.schedule->starts(), many.schedule->starts());
}

}  // namespace
}  // namespace paws
