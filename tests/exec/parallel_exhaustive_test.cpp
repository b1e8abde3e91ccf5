// Determinism contract of the parallel branch-and-bound: for any thread
// count the ExhaustiveScheduler must return byte-identical schedules,
// costs and outcome flags — the parallel search only partitions the
// top-level start-time axis and prunes with achieved-cost bounds, so the
// ordered chunk reduction reproduces the serial DFS winner exactly.
//
// The rover model is deliberately absent here: its exhaustive search trips
// any practical node budget (Section 5.3's exponential-complexity point),
// and which nodes get visited before a shared budget trips is the one
// documented source of parallel nondeterminism (docs/performance.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "gen/random_problem.hpp"
#include "sched/exhaustive_scheduler.hpp"

namespace paws {
namespace {

GeneratorConfig smallConfig(std::uint32_t seed, std::size_t numTasks) {
  GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.numTasks = numTasks;
  cfg.numResources = 2;
  cfg.maxDelay = 4;
  cfg.witnessJitter = 2;
  cfg.pmaxHeadroomMw = 500;
  return cfg;
}

struct Outcome {
  SchedStatus status;
  bool provenOptimal = false;
  std::vector<Time> starts;
  std::int64_t costMwt = 0;
  std::int64_t finishTicks = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome runWithJobs(const Problem& problem, std::size_t jobs) {
  ExhaustiveOptions options;
  options.jobs = jobs;
  ExhaustiveScheduler scheduler(problem, options);
  const ScheduleResult r = scheduler.schedule();
  Outcome o;
  o.status = r.status;
  o.provenOptimal = scheduler.outcome().provenOptimal;
  if (r.schedule) {
    o.starts = r.schedule->starts();
    o.costMwt = r.schedule->energyCost(problem.minPower()).milliwattTicks();
    o.finishTicks = r.schedule->finish().ticks();
  }
  return o;
}

TEST(ParallelExhaustiveTest, JobsCountNeverChangesTheAnswer) {
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    const GeneratedProblem gp =
        generateRandomProblem(smallConfig(seed, /*numTasks=*/5));
    const Outcome serial = runWithJobs(gp.problem, 1);
    ASSERT_TRUE(serial.provenOptimal) << "seed " << seed;
    for (const std::size_t jobs : {2u, 8u}) {
      const Outcome parallel = runWithJobs(gp.problem, jobs);
      EXPECT_EQ(parallel, serial) << "seed " << seed << " jobs " << jobs;
    }
  }
}

TEST(ParallelExhaustiveTest, LargerInstancesStayDeterministic) {
  for (std::uint32_t seed = 3; seed <= 5; ++seed) {
    const GeneratedProblem gp =
        generateRandomProblem(smallConfig(seed, /*numTasks=*/7));
    const Outcome serial = runWithJobs(gp.problem, 1);
    if (!serial.provenOptimal) continue;  // budget trip: not comparable
    for (const std::size_t jobs : {2u, 8u}) {
      const Outcome parallel = runWithJobs(gp.problem, jobs);
      EXPECT_EQ(parallel, serial) << "seed " << seed << " jobs " << jobs;
    }
  }
}

TEST(ParallelExhaustiveTest, AutoJobsSentinelResolvesAndStaysCorrect) {
  const GeneratedProblem gp =
      generateRandomProblem(smallConfig(1, /*numTasks=*/5));
  const Outcome serial = runWithJobs(gp.problem, 1);
  const Outcome autoJobs = runWithJobs(gp.problem, 0);  // PAWS_JOBS / cores
  EXPECT_EQ(autoJobs, serial);
}

TEST(ParallelExhaustiveTest, InfeasibleInstancesAgreeAcrossJobCounts) {
  // A horizon too short for any schedule: every job count must report the
  // same kPowerInfeasible verdict with a completed (proven) search.
  const GeneratedProblem gp =
      generateRandomProblem(smallConfig(2, /*numTasks=*/5));
  ExhaustiveOptions options;
  options.horizon = Time(1);
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    options.jobs = jobs;
    ExhaustiveScheduler scheduler(gp.problem, options);
    const ScheduleResult r = scheduler.schedule();
    EXPECT_EQ(r.status, SchedStatus::kPowerInfeasible) << "jobs " << jobs;
    EXPECT_TRUE(scheduler.outcome().provenOptimal) << "jobs " << jobs;
  }
}

}  // namespace
}  // namespace paws
