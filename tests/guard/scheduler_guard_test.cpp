// Deadline / cancellation behavior of the schedulers: anytime incumbents
// from the exhaustive search, clean unwinding of the heuristic pipeline,
// and the byte-identity guarantee when no budget is set.
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/random_problem.hpp"
#include "guard/budget.hpp"
#include "guard/cancel.hpp"
#include "obs/metrics.hpp"
#include "sched/exhaustive_scheduler.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "validate/validator.hpp"

namespace paws {
namespace {

using std::chrono::milliseconds;

Problem bigProblem(std::uint32_t seed, std::size_t tasks) {
  GeneratorConfig config;
  config.seed = seed;
  config.numTasks = tasks;
  config.numResources = 4;
  return generateRandomProblem(config).problem;
}

TEST(ExhaustiveGuardTest, DeadlineReturnsBestIncumbent) {
  // 16 tasks is far beyond what the exhaustive search finishes in 50 ms,
  // but the first DFS leaves land within microseconds — so the trip should
  // find an incumbent to return.
  const Problem problem = bigProblem(3, 16);
  obs::MetricsRegistry metrics;
  ExhaustiveOptions options;
  options.maxNodes = std::numeric_limits<std::uint64_t>::max();
  options.budget.timeout = milliseconds(50);
  options.obs.metrics = &metrics;
  ExhaustiveScheduler scheduler(problem, options);
  const ScheduleResult r = scheduler.schedule();

  EXPECT_EQ(r.status, SchedStatus::kDeadlineExceeded);
  EXPECT_FALSE(scheduler.outcome().provenOptimal);
  EXPECT_EQ(scheduler.outcome().stopReason, guard::StopReason::kDeadline);
  EXPECT_FALSE(r.message.empty());
  EXPECT_EQ(metrics.counter("guard.deadline_trips"), 1u);
  if (r.schedule.has_value()) {
    // The incumbent is a fully validated leaf, not a partial placement.
    EXPECT_TRUE(ScheduleValidator(problem).validate(*r.schedule).valid());
    EXPECT_EQ(metrics.counter("guard.incumbent_returned"), 1u);
  } else {
    EXPECT_NE(r.message.find("before any valid schedule"), std::string::npos);
  }
}

TEST(ExhaustiveGuardTest, CrossThreadCancelStopsParallelSearch) {
  const Problem problem = bigProblem(7, 16);
  guard::CancelSource source;
  ExhaustiveOptions options;
  options.maxNodes = std::numeric_limits<std::uint64_t>::max();
  options.jobs = 2;
  options.budget.cancel = source.token();
  ExhaustiveScheduler scheduler(problem, options);

  std::thread canceller([&source] {
    std::this_thread::sleep_for(milliseconds(30));
    source.cancel();
  });
  const ScheduleResult r = scheduler.schedule();
  canceller.join();

  EXPECT_EQ(r.status, SchedStatus::kDeadlineExceeded);
  EXPECT_EQ(scheduler.outcome().stopReason, guard::StopReason::kCancelled);
  EXPECT_FALSE(scheduler.outcome().provenOptimal);
  if (r.schedule.has_value()) {
    EXPECT_TRUE(ScheduleValidator(problem).validate(*r.schedule).valid());
  }
}

TEST(ExhaustiveGuardTest, NoBudgetIsByteIdenticalForAnyJobsCount) {
  // Small enough to finish exhaustively; the clean path must not depend on
  // the worker count, and an unhit (huge) deadline must change nothing.
  GeneratorConfig config;
  config.seed = 11;
  config.numTasks = 5;
  config.numResources = 2;
  config.maxDelay = 4;
  config.witnessJitter = 2;
  config.pmaxHeadroomMw = 500;
  const Problem problem = generateRandomProblem(config).problem;
  std::vector<Time> reference;
  std::uint64_t referenceNodes = 0;
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    ExhaustiveOptions options;
    options.jobs = jobs;
    ExhaustiveScheduler scheduler(problem, options);
    const ScheduleResult r = scheduler.schedule();
    ASSERT_EQ(r.status, SchedStatus::kOk) << "jobs=" << jobs;
    EXPECT_TRUE(scheduler.outcome().provenOptimal);
    EXPECT_EQ(scheduler.outcome().stopReason, guard::StopReason::kNone);
    if (reference.empty()) {
      reference = r.schedule->starts();
      referenceNodes = scheduler.outcome().nodesExplored;
    } else {
      EXPECT_EQ(r.schedule->starts(), reference) << "jobs=" << jobs;
    }
  }
  // A deadline that never trips must leave the search byte-identical too.
  ExhaustiveOptions guarded;
  guarded.budget.timeout = std::chrono::hours(1);
  ExhaustiveScheduler scheduler(problem, guarded);
  const ScheduleResult r = scheduler.schedule();
  ASSERT_EQ(r.status, SchedStatus::kOk);
  EXPECT_EQ(r.schedule->starts(), reference);
  EXPECT_EQ(scheduler.outcome().nodesExplored, referenceNodes);
}

TEST(PipelineGuardTest, PreCancelledRunFailsFastAndLeavesNoResidue) {
  const Problem problem = bigProblem(5, 20);
  guard::CancelSource source;
  source.cancel();

  obs::MetricsRegistry metrics;
  PowerAwareOptions options;
  options.budget.cancel = source.token();
  options.obs.metrics = &metrics;
  const ScheduleResult cancelled =
      PowerAwareScheduler(problem, options).schedule();
  EXPECT_EQ(cancelled.status, SchedStatus::kDeadlineExceeded);
  EXPECT_FALSE(cancelled.message.empty());
  EXPECT_GE(metrics.counter("guard.cancels"), 1u);

  // The cancelled run must not have corrupted anything reachable: a fresh
  // unguarded run over the same Problem still succeeds normally.
  const ScheduleResult clean = PowerAwareScheduler(problem).schedule();
  ASSERT_EQ(clean.status, SchedStatus::kOk);
  EXPECT_TRUE(ScheduleValidator(problem).validate(*clean.schedule).valid());
}

TEST(PipelineGuardTest, UnhitDeadlineIsByteIdenticalToNoBudget) {
  const Problem problem = bigProblem(9, 18);
  const ScheduleResult plain = PowerAwareScheduler(problem).schedule();

  PowerAwareOptions guarded;
  guarded.budget.timeout = std::chrono::hours(1);
  const ScheduleResult withBudget =
      PowerAwareScheduler(problem, guarded).schedule();

  ASSERT_EQ(plain.status, withBudget.status);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.schedule->starts(), withBudget.schedule->starts());
  EXPECT_EQ(plain.stats.longestPathRuns, withBudget.stats.longestPathRuns);
  EXPECT_EQ(plain.stats.backtracks, withBudget.stats.backtracks);
  EXPECT_EQ(plain.stats.improvements, withBudget.stats.improvements);
}

TEST(PipelineGuardTest, MidFlightCancelYieldsConsistentAnytimeOrFailure) {
  // Race a cancel against the pipeline. Whatever instant it lands at, the
  // result must be one of: a clean success (cancel came too late), or
  // kDeadlineExceeded whose schedule — if any — passes the validator.
  const Problem problem = bigProblem(13, 40);
  guard::CancelSource source;
  PowerAwareOptions options;
  options.trials = 1;
  options.budget.cancel = source.token();
  PowerAwareScheduler scheduler(problem, options);

  std::thread canceller([&source] {
    std::this_thread::sleep_for(milliseconds(2));
    source.cancel();
  });
  const ScheduleResult r = scheduler.schedule();
  canceller.join();

  ASSERT_TRUE(r.status == SchedStatus::kOk ||
              r.status == SchedStatus::kDeadlineExceeded ||
              r.status == SchedStatus::kPowerInfeasible)
      << toString(r.status) << ": " << r.message;
  if (r.schedule.has_value()) {
    EXPECT_TRUE(ScheduleValidator(problem).validate(*r.schedule).valid())
        << toString(r.status);
  }
}

}  // namespace
}  // namespace paws
