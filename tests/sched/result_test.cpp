#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "sched/result.hpp"

namespace paws {
namespace {

TEST(SchedulerStatsTest, AccumulationAddsEveryField) {
  SchedulerStats a{1, 2, 3, 4, 5, 6, 7};
  const SchedulerStats b{10, 20, 30, 40, 50, 60, 70};
  a += b;
  EXPECT_EQ(a.longestPathRuns, 11u);
  EXPECT_EQ(a.backtracks, 22u);
  EXPECT_EQ(a.delays, 33u);
  EXPECT_EQ(a.locks, 44u);
  EXPECT_EQ(a.recursions, 55u);
  EXPECT_EQ(a.scans, 66u);
  EXPECT_EQ(a.improvements, 77u);

  // Accumulating a default-constructed stats is the identity.
  const SchedulerStats before = a;
  a += SchedulerStats{};
  EXPECT_EQ(a.backtracks, before.backtracks);
  EXPECT_EQ(a.improvements, before.improvements);
}

TEST(SchedulerStatsTest, ExportAndReconstructViaRegistryRoundTrips) {
  const SchedulerStats stats{9, 8, 7, 6, 5, 4, 3};
  obs::MetricsRegistry registry;
  exportStats(stats, registry);
  // Every field reads back under its stable search.* name.
  EXPECT_EQ(registry.counter("search.longest_path_runs"),
            stats.longestPathRuns);
  EXPECT_EQ(registry.counter("search.backtracks"), stats.backtracks);
  EXPECT_EQ(registry.counter("search.delays"), stats.delays);
  EXPECT_EQ(registry.counter("search.locks"), stats.locks);
  EXPECT_EQ(registry.counter("search.recursions"), stats.recursions);
  EXPECT_EQ(registry.counter("search.scans"), stats.scans);
  EXPECT_EQ(registry.counter("search.improvements"), stats.improvements);
  EXPECT_EQ(registry.size(), 7u);

  // Exporting twice accumulates, matching SchedulerStats::operator+=.
  exportStats(stats, registry);
  EXPECT_EQ(registry.counter("search.delays"), 14u);
}

}  // namespace
}  // namespace paws
