#include "exec/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <vector>

#include "exec/jobs.hpp"
#include "exec/parallel_for.hpp"
#include "obs/metrics.hpp"

namespace paws::exec {
namespace {

TEST(PoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    Pool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // destructor drains, then joins
  EXPECT_EQ(count.load(), 100);
}

TEST(PoolTest, AsyncReturnsValue) {
  Pool pool(2);
  std::future<int> f = pool.async([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(PoolTest, AsyncCapturesExceptions) {
  Pool pool(2);
  std::future<int> f =
      pool.async([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(PoolTest, ThrowingRawTaskLeavesThePoolRunning) {
  obs::MetricsRegistry registry;
  {
    Pool pool(1, /*maxQueued=*/4);
    std::promise<void> started;
    std::future<void> throwing = started.get_future();
    ASSERT_TRUE(pool.trySubmit([&started] {
      started.set_value();
      throw std::runtime_error("boom");
    }));
    throwing.wait();
    // The single worker must survive the throw to run what comes next.
    std::future<int> after = pool.async([] { return 7; });
    EXPECT_EQ(after.get(), 7);
    EXPECT_EQ(pool.stats().tasksFailed, 1u);
    pool.exportMetrics(registry);
  }
  EXPECT_EQ(registry.counter("exec.tasks_failed"), 1u);
}

TEST(PoolTest, StatsCountRunTasks) {
  Pool pool(3);
  std::vector<std::future<int>> fs;
  for (int i = 0; i < 20; ++i) {
    fs.push_back(pool.async([i] { return i; }));
  }
  for (auto& f : fs) (void)f.get();
  EXPECT_EQ(pool.stats().tasksRun, 20u);
}

TEST(PoolTest, ExportMetricsPublishesPoolCounters) {
  obs::MetricsRegistry registry;
  {
    Pool pool(3);
    std::future<void> f = pool.async([] {});
    f.get();
    pool.exportMetrics(registry);
  }
  EXPECT_EQ(registry.gauge("exec.pool_threads"), 3.0);
  EXPECT_GE(registry.counter("exec.tasks_run"), 1u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    Pool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    parallelFor(pool, hits.size(),
                [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " @" << threads;
    }
  }
}

TEST(ParallelForTest, ZeroAndSingleIterationWork) {
  Pool pool(2);
  int calls = 0;
  parallelFor(pool, 0, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallelFor(pool, 1, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelMapTest, ResultsLandAtTheirIndexForAnyThreadCount) {
  std::vector<std::vector<std::size_t>> perThreadCount;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    Pool pool(threads);
    perThreadCount.push_back(parallelMap(
        pool, 100, [](std::size_t i) { return i * i; }));
  }
  for (const auto& out : perThreadCount) {
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
  // Deterministic: identical output regardless of thread count.
  EXPECT_EQ(perThreadCount[0], perThreadCount[1]);
  EXPECT_EQ(perThreadCount[0], perThreadCount[2]);
}

TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  Pool pool(4);
  std::atomic<int> total{0};
  parallelFor(pool, 4, [&pool, &total](std::size_t) {
    parallelFor(pool, 50, [&total](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 200);
}

TEST(JobsTest, ExplicitRequestWinsOverEnvironment) {
  ::setenv("PAWS_JOBS", "3", /*overwrite=*/1);
  EXPECT_EQ(defaultJobs(), 3u);
  EXPECT_EQ(resolveJobs(0), 3u);
  EXPECT_EQ(resolveJobs(5), 5u);
  ::unsetenv("PAWS_JOBS");
  EXPECT_GE(defaultJobs(), 1u);
}

TEST(JobsTest, GarbageEnvironmentFallsBackToHardware) {
  ::setenv("PAWS_JOBS", "not-a-number", /*overwrite=*/1);
  EXPECT_GE(defaultJobs(), 1u);
  ::setenv("PAWS_JOBS", "-2", /*overwrite=*/1);
  EXPECT_GE(defaultJobs(), 1u);
  ::unsetenv("PAWS_JOBS");
}

TEST(PoolTest, ZeroThreadRequestResolvesToAtLeastOne) {
  Pool pool(0);
  EXPECT_GE(pool.numThreads(), 1u);
  std::future<int> f = pool.async([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

}  // namespace
}  // namespace paws::exec
