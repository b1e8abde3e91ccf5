// Adversarial fuzz: arbitrary constraint soup with NO feasibility
// guarantee. The robustness contract under attack inputs is narrow and
// absolute: every scheduler terminates within its budget and NEVER returns
// a schedule the independent validator rejects — failing is always
// acceptable, lying never is.
#include <gtest/gtest.h>

#include <random>

#include "sched/exhaustive_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/serial_scheduler.hpp"
#include "support/pipeline.hpp"
#include "validate/validator.hpp"

namespace paws {
namespace {

Problem adversarialProblem(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto uniform = [&rng](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  Problem p("adversarial" + std::to_string(seed));
  const std::size_t numResources = 1 + rng() % 4;
  std::vector<ResourceId> resources;
  for (std::size_t r = 0; r < numResources; ++r) {
    resources.push_back(p.addResource("r" + std::to_string(r)));
  }
  const std::size_t numTasks = 2 + rng() % 10;
  std::vector<TaskId> tasks;
  for (std::size_t i = 0; i < numTasks; ++i) {
    tasks.push_back(p.addTask("t" + std::to_string(i),
                              Duration(uniform(1, 8)),
                              Watts::fromMilliwatts(uniform(0, 9000)),
                              resources[rng() % numResources]));
  }
  // Random constraint soup: mins and maxes in both directions, possibly
  // contradictory, possibly cyclic.
  const std::size_t numConstraints = rng() % (3 * numTasks);
  for (std::size_t k = 0; k < numConstraints; ++k) {
    const TaskId u = tasks[rng() % numTasks];
    const TaskId v = tasks[rng() % numTasks];
    if (u == v) continue;
    const Duration sep(uniform(-5, 25));
    if (rng() % 2) {
      p.minSeparation(u, v, sep);
    } else {
      p.maxSeparation(u, v, sep);
    }
  }
  // Budget that may or may not be satisfiable.
  p.setMaxPower(Watts::fromMilliwatts(uniform(2000, 15000)));
  p.setMinPower(Watts::fromMilliwatts(uniform(0, 8000)));
  p.setBackgroundPower(Watts::fromMilliwatts(uniform(0, 1500)));
  return p;
}

class AdversarialFuzz : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AdversarialFuzz, SchedulersNeverLie) {
  const Problem p = adversarialProblem(GetParam());
  const ScheduleValidator validator(p);

  {
    PowerAwareOptions opt;
    opt.maxPower.maxDelays = 3000;          // keep the fuzz fast
    opt.maxPower.timing.maxBacktracks = 3000;
    opt.maxPower.maxRecursionDepth = 16;
    const ScheduleResult r = testutil::runPipelineOnce(p, opt);
    if (r.ok()) {
      EXPECT_TRUE(validator.validate(*r.schedule).valid())
          << "pipeline lied on seed " << GetParam();
    }
  }
  {
    TimingOptions opt;
    opt.maxBacktracks = 3000;
    SerialScheduler serial(p, opt);
    const ScheduleResult r = serial.schedule();
    if (r.ok()) {
      EXPECT_TRUE(validator.validate(*r.schedule).timeValid())
          << "serial lied on seed " << GetParam();
    }
  }
  {
    ListScheduler list(p);
    const ScheduleResult r = list.schedule();
    if (r.ok()) {
      // The greedy baseline is allowed to break max separations only.
      const auto report = validator.validate(*r.schedule);
      for (const Violation& v : report.violations) {
        EXPECT_EQ(v.kind, Violation::Kind::kMaxSeparation)
            << "list scheduler broke a hard guarantee on seed "
            << GetParam() << ": " << v;
      }
    }
  }
}

TEST_P(AdversarialFuzz, ExhaustiveOracleNeverLies) {
  // Smaller instances for the oracle; its verdicts must be validator-true.
  const Problem p = adversarialProblem(GetParam() * 977 + 3);
  if (p.numTasks() > 5) return;
  ExhaustiveOptions opt;
  opt.maxNodes = 300000;
  ExhaustiveScheduler oracle(p, opt);
  const ScheduleResult r = oracle.schedule();
  if (r.ok()) {
    EXPECT_TRUE(ScheduleValidator(p).validate(*r.schedule).valid())
        << "oracle lied on seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversarialFuzz, ::testing::Range(1u, 41u));

}  // namespace
}  // namespace paws
