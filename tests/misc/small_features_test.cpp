// Coverage for infeasible-instance injection: the generator's injected
// contradiction must make the timing scheduler refuse.
#include <gtest/gtest.h>

#include "gen/random_problem.hpp"
#include "graph/longest_path.hpp"
#include "sched/timing_scheduler.hpp"

namespace paws {
namespace {

class InjectedContradiction
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(InjectedContradiction, TimingSchedulerAlwaysRefuses) {
  GeneratorConfig cfg;
  cfg.seed = GetParam();
  cfg.numTasks = 12;
  cfg.injectContradiction = true;
  const GeneratedProblem gp = generateRandomProblem(cfg);
  // The injected pair shows up in structural validation...
  EXPECT_FALSE(gp.problem.validate().empty()) << "seed " << GetParam();
  // ...and the scheduler must fail rather than emit an invalid schedule.
  ConstraintGraph g = gp.problem.buildGraph();
  LongestPathEngine engine(g);
  TimingScheduler ts(gp.problem);
  SchedulerStats stats;
  const auto out = ts.run(g, engine, stats);
  EXPECT_FALSE(out.ok) << "seed " << GetParam();
  EXPECT_FALSE(out.budgetExhausted)
      << "a positive cycle is detected, not searched for";
  EXPECT_NE(out.message.find("contradict"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InjectedContradiction,
                         ::testing::Range(1u, 13u));

}  // namespace
}  // namespace paws
