// Data-driven test over every bundled .paws problem: each must parse,
// validate, schedule through the full pipeline, pass the independent
// validator, and round-trip through the writer. Adding a new example file
// to examples/data/ automatically puts it under test (update kBundled).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "io/parser.hpp"
#include "io/writer.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "validate/validator.hpp"

namespace paws {
namespace {

// Relative to the ctest working directory (build/tests) and the repo root;
// try both so the test runs from either.
std::string readFile(const std::string& name) {
  for (const char* prefix : {"../../examples/data/", "examples/data/",
                             "../examples/data/"}) {
    std::ifstream in(prefix + name);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      return buffer.str();
    }
  }
  return {};
}

class BundledExample : public ::testing::TestWithParam<const char*> {};

TEST_P(BundledExample, ParsesValidatesSchedulesRoundTrips) {
  const std::string source = readFile(GetParam());
  ASSERT_FALSE(source.empty()) << "cannot locate " << GetParam();

  const io::ParseResult parsed = io::parseProblem(source);
  ASSERT_TRUE(parsed.ok())
      << (parsed.errors.empty() ? "" : io::format(parsed.errors[0]));
  const Problem& p = *parsed.problem;
  EXPECT_TRUE(p.validate().empty());

  PowerAwareScheduler scheduler(p);
  const ScheduleResult r = scheduler.schedule();
  ASSERT_TRUE(r.ok()) << r.message;
  const ValidationReport report = ScheduleValidator(p).validate(*r.schedule);
  EXPECT_TRUE(report.valid())
      << ::testing::PrintToString(report.violations);

  const io::ParseResult reparsed = io::parseProblem(io::problemToText(p));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.problem->numTasks(), p.numTasks());
  EXPECT_EQ(reparsed.problem->constraints().size(), p.constraints().size());
}

INSTANTIATE_TEST_SUITE_P(Files, BundledExample,
                         ::testing::Values("sensor_node.paws",
                                           "satellite.paws",
                                           "deep_space_probe.paws"));

}  // namespace
}  // namespace paws
