// Repair invariants over random instances and random disruption points:
// history is immutable, the future respects the new limits, and repair
// under unchanged limits never invents violations.
#include <gtest/gtest.h>

#include <random>

#include "gen/random_problem.hpp"
#include "sched/repair.hpp"
#include "support/pipeline.hpp"
#include "validate/validator.hpp"

namespace paws {
namespace {

class RepairProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RepairProperty, HistoryFrozenFutureLegal) {
  GeneratorConfig cfg;
  cfg.seed = GetParam();
  cfg.numTasks = 14;
  cfg.numResources = 4;
  cfg.pmaxHeadroomMw = 1000;
  const GeneratedProblem gp = generateRandomProblem(cfg);

  const ScheduleResult base = testutil::runPipelineOnce(gp.problem);
  if (!base.ok()) {
    SUCCEED();
    return;
  }

  std::mt19937 rng(GetParam() * 37 + 1);
  const std::int64_t span = base.schedule->finish().ticks();
  if (span < 2) return;
  const Time now(1 + static_cast<std::int64_t>(
                         rng() % static_cast<std::uint64_t>(span - 1)));

  // Disruption: drop the budget by up to 20% (but keep singles feasible).
  Watts heaviest = Watts::zero();
  for (TaskId v : gp.problem.taskIds()) {
    heaviest = std::max(heaviest, gp.problem.task(v).power);
  }
  const Watts floor = heaviest + gp.problem.backgroundPower();
  Watts newPmax = Watts::fromMilliwatts(
      gp.problem.maxPower().milliwatts() -
      static_cast<std::int64_t>(rng() % 2000));
  newPmax = std::max(newPmax, floor);

  Problem updated(gp.problem);
  updated.setMaxPower(newPmax);
  const RepairInput input{&updated, &*base.schedule, now};
  const ScheduleResult repaired = repairSchedule(input);
  if (!repaired.ok()) {
    SUCCEED();  // the heuristic may fail under the tighter budget
    return;
  }

  // History is bit-identical; the future never reaches back.
  for (TaskId v : gp.problem.taskIds()) {
    if (base.schedule->start(v) < now) {
      EXPECT_EQ(repaired.schedule->start(v), base.schedule->start(v))
          << "seed " << GetParam();
    } else {
      EXPECT_GE(repaired.schedule->start(v), now) << "seed " << GetParam();
    }
  }
  // Timing and exclusivity hold everywhere; the new budget holds from
  // `now` on (historical spikes are tolerated by design).
  const ValidationReport report =
      ScheduleValidator(updated).validate(*repaired.schedule);
  for (const Violation& v : report.violations) {
    EXPECT_EQ(v.kind, Violation::Kind::kPowerSpike)
        << "seed " << GetParam() << ": " << v;
  }
  for (const Interval& spike :
       repaired.schedule->powerProfile().spikes(newPmax)) {
    EXPECT_LT(spike.begin(), now) << "seed " << GetParam();
  }
}

TEST_P(RepairProperty, NoOpRepairIsStillValid) {
  GeneratorConfig cfg;
  cfg.seed = GetParam() * 53 + 7;
  cfg.numTasks = 10;
  cfg.numResources = 3;
  cfg.pmaxHeadroomMw = 1000;
  const GeneratedProblem gp = generateRandomProblem(cfg);
  const ScheduleResult base = testutil::runPipelineOnce(gp.problem);
  if (!base.ok()) {
    SUCCEED();
    return;
  }
  const Time mid(base.schedule->finish().ticks() / 2);
  const RepairInput input{&gp.problem, &*base.schedule, mid};
  const ScheduleResult repaired = repairSchedule(input);
  ASSERT_TRUE(repaired.ok()) << "seed " << cfg.seed << ": "
                             << repaired.message;
  EXPECT_TRUE(
      ScheduleValidator(gp.problem).validate(*repaired.schedule).valid())
      << "seed " << cfg.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairProperty, ::testing::Range(1u, 21u));

TEST(ProblemCopyTest, CopiesAreIndependent) {
  Problem original("orig");
  const ResourceId r1 = original.addResource("r1");
  original.addTask("a", Duration(5), Watts::fromWatts(2.0), r1);

  Problem copy(original);
  copy.addTask("b", Duration(3), Watts::fromWatts(1.0), r1);
  copy.setMaxPower(Watts::fromWatts(9.0));
  copy.minSeparation(TaskId(1), TaskId(2), Duration(5));

  EXPECT_EQ(original.numTasks(), 1u);
  EXPECT_EQ(copy.numTasks(), 2u);
  EXPECT_FALSE(original.findTask("b").has_value());
  EXPECT_TRUE(copy.findTask("b").has_value());
  EXPECT_EQ(original.maxPower(), Watts::max());
  EXPECT_TRUE(original.constraints().empty());
  EXPECT_EQ(copy.constraints().size(), 1u);
}

}  // namespace
}  // namespace paws
