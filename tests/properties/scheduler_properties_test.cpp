// Parameterized property sweeps: the scheduler-stack invariants the paper
// relies on, checked against seeded random instances that are feasible by
// construction (see gen/random_problem.hpp).
#include <gtest/gtest.h>

#include "gen/random_problem.hpp"
#include "graph/longest_path.hpp"
#include "sched/max_power_scheduler.hpp"
#include "sched/min_power_scheduler.hpp"
#include "sched/serial_scheduler.hpp"
#include "sched/slack.hpp"
#include "sched/timing_scheduler.hpp"
#include "support/pipeline.hpp"
#include "validate/validator.hpp"

namespace paws {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  GeneratedProblem generate(std::size_t tasks = 18,
                            std::size_t resources = 4) const {
    GeneratorConfig cfg;
    cfg.seed = GetParam();
    cfg.numTasks = tasks;
    cfg.numResources = resources;
    cfg.pmaxHeadroomMw = 500;  // a little room above the witness peak
    return generateRandomProblem(cfg);
  }
};

TEST_P(SeededProperty, TimingSchedulerAlwaysSolvesFeasibleInstances) {
  const GeneratedProblem gp = generate();
  ConstraintGraph g = gp.problem.buildGraph();
  LongestPathEngine engine(g);
  TimingScheduler ts(gp.problem);
  SchedulerStats stats;
  const auto out = ts.run(g, engine, stats);
  ASSERT_TRUE(out.ok) << "seed " << GetParam() << ": " << out.message;
  const Schedule s(&gp.problem, out.starts);
  const auto report = ScheduleValidator(gp.problem).validate(s);
  for (const Violation& v : report.violations) {
    EXPECT_EQ(v.kind, Violation::Kind::kPowerSpike)
        << "seed " << GetParam() << ": " << v;
  }
}

TEST_P(SeededProperty, TimingScheduleNeverBeatsWitnessConstraints) {
  // The ASAP schedule finishes no later than the witness (it is the
  // earliest schedule for SOME serialization; the witness is A solution).
  // This is a heuristic-quality canary rather than a hard theorem for
  // arbitrary orders, so we only check the schedule is not wildly worse.
  const GeneratedProblem gp = generate();
  ConstraintGraph g = gp.problem.buildGraph();
  LongestPathEngine engine(g);
  TimingScheduler ts(gp.problem);
  SchedulerStats stats;
  const auto out = ts.run(g, engine, stats);
  ASSERT_TRUE(out.ok);
  const Time witnessFinish =
      finishOf(gp.problem, gp.witnessStarts);
  const Time ourFinish = finishOf(gp.problem, out.starts);
  EXPECT_LE(ourFinish.ticks(), 2 * witnessFinish.ticks() + 1)
      << "seed " << GetParam();
}

TEST_P(SeededProperty, SlackDelayPreservesValidity) {
  // For every task: delaying it alone by its slack (when finite) keeps the
  // schedule time-valid — the defining slack property of Section 4.1.
  const GeneratedProblem gp = generate();
  ConstraintGraph g = gp.problem.buildGraph();
  LongestPathEngine engine(g);
  TimingScheduler ts(gp.problem);
  SchedulerStats stats;
  const auto out = ts.run(g, engine, stats);
  ASSERT_TRUE(out.ok);
  const std::vector<Duration> slacks = computeSlacks(g, out.starts);
  const ScheduleValidator validator(gp.problem);
  for (TaskId v : gp.problem.taskIds()) {
    if (slacks[v.index()] == Duration::max()) continue;
    if (slacks[v.index()].isZero()) continue;
    std::vector<Time> delayed = out.starts;
    delayed[v.index()] += slacks[v.index()];
    const auto report = validator.validate(Schedule(&gp.problem, delayed));
    bool timingBroken = false;
    for (const Violation& viol : report.violations) {
      if (viol.kind == Violation::Kind::kMinSeparation ||
          viol.kind == Violation::Kind::kMaxSeparation) {
        timingBroken = true;
      }
      // Resource overlaps with *earlier* same-resource tasks cannot happen
      // (delay only moves right); overlaps with later ones are prevented by
      // serialization edges, which slacks respect.
      if (viol.kind == Violation::Kind::kResourceOverlap) {
        timingBroken = true;
      }
    }
    EXPECT_FALSE(timingBroken)
        << "seed " << GetParam() << " task " << gp.problem.task(v).name
        << " slack " << slacks[v.index()].ticks();
  }
}

TEST_P(SeededProperty, MaxPowerOutputRespectsBudgetWhenItSucceeds) {
  const GeneratedProblem gp = generate();
  MaxPowerScheduler scheduler(gp.problem);
  const ScheduleResult r = scheduler.schedule();
  if (!r.ok()) {
    // The heuristic may fail on feasible instances (paper Section 5.2);
    // that is an accepted outcome, not silent invalidity.
    SUCCEED();
    return;
  }
  const auto report = ScheduleValidator(gp.problem).validate(*r.schedule);
  EXPECT_TRUE(report.valid()) << "seed " << GetParam();
}

TEST_P(SeededProperty, MinPowerNeverRegressesAndStaysValid) {
  const GeneratedProblem gp = generate();
  MaxPowerScheduler maxPower(gp.problem);
  const ScheduleResult valid = maxPower.schedule();
  if (!valid.ok()) {
    SUCCEED();
    return;
  }
  const double rhoBefore = valid.schedule->utilization(gp.problem.minPower());
  MinPowerScheduler minPower(gp.problem);
  ScheduleResult improved = minPower.improve(*valid.schedule);
  ASSERT_TRUE(improved.ok());
  EXPECT_GE(improved.schedule->utilization(gp.problem.minPower()) + 1e-12,
            rhoBefore)
      << "seed " << GetParam();
  EXPECT_TRUE(
      ScheduleValidator(gp.problem).validate(*improved.schedule).valid())
      << "seed " << GetParam();
}

TEST_P(SeededProperty, EnergyAccountingIsConsistent) {
  // Ec(Pmin) + cappedEnergy(Pmin) == totalEnergy for any schedule.
  const GeneratedProblem gp = generate();
  const Schedule witness(&gp.problem, gp.witnessStarts);
  const PowerProfile& prof = witness.powerProfile();
  const Watts pmin = gp.problem.minPower();
  EXPECT_EQ(prof.energyAbove(pmin) + prof.energyCappedAt(pmin),
            prof.totalEnergy());
  const double rho = prof.utilization(pmin);
  EXPECT_GE(rho, 0.0);
  EXPECT_LE(rho, 1.0 + 1e-12);
}

TEST_P(SeededProperty, SerialSchedulerProducesNonOverlappingValidSchedules) {
  const GeneratedProblem gp = generate(14, 3);
  SerialScheduler serial(gp.problem);
  const ScheduleResult r = serial.schedule();
  if (!r.ok()) {
    SUCCEED();  // windows may forbid full serialization
    return;
  }
  const auto report = ScheduleValidator(gp.problem).validate(*r.schedule);
  EXPECT_TRUE(report.timeValid()) << "seed " << GetParam();
  const auto ids = gp.problem.taskIds();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      EXPECT_FALSE(r.schedule->interval(ids[i])
                       .overlaps(r.schedule->interval(ids[j])));
    }
  }
}

TEST_P(SeededProperty, SchedulersAreDeterministic) {
  const GeneratedProblem gp = generate();
  const ScheduleResult ra = testutil::runPipelineOnce(gp.problem);
  const ScheduleResult rb = testutil::runPipelineOnce(gp.problem);
  ASSERT_EQ(ra.ok(), rb.ok());
  if (ra.ok()) {
    EXPECT_EQ(ra.schedule->starts(), rb.schedule->starts())
        << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range(1u, 33u));  // 32 seeds

}  // namespace
}  // namespace paws
