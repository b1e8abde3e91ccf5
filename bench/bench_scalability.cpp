// Scalability of the scheduling stack (methodology bench, no paper table):
// runtime of longest-path recomputation, timing scheduling, and the full
// pipeline as the problem grows, on feasible-by-construction random
// instances. Prints a quality summary first (success rates over seeds) so
// regressions in heuristic strength are as visible as slowdowns.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_report.hpp"
#include "exec/jobs.hpp"
#include "exec/parallel_for.hpp"
#include "exec/pool.hpp"
#include "gen/random_problem.hpp"
#include "graph/longest_path.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "sched/timing_scheduler.hpp"
#include "validate/validator.hpp"

using namespace paws;

namespace {

GeneratorConfig configFor(std::size_t tasks, std::uint32_t seed) {
  GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.numTasks = tasks;
  cfg.numResources = 2 + tasks / 8;
  cfg.pmaxHeadroomMw = 1000;
  return cfg;
}

void printQualitySummary() {
  std::printf("=== scheduling success over random feasible instances ===\n");
  std::printf("%8s %10s %12s %12s\n", "tasks", "timing", "max-power",
              "pipeline-valid");
  exec::Pool pool(exec::defaultJobs());
  for (const std::size_t tasks : {10u, 20u, 40u, 80u, 160u}) {
    const int kSeeds = 10;
    // Each seed's full scheduling run is independent: fan the seeds out on
    // the pool, reduce the per-seed verdicts in order.
    struct Verdict {
      bool timingOk = false;
      bool pipelineOk = false;
      bool valid = false;
    };
    const std::vector<Verdict> verdicts = exec::parallelMap(
        pool, kSeeds, [tasks](std::size_t i) -> Verdict {
          const std::uint32_t seed = static_cast<std::uint32_t>(i) + 1;
          const GeneratedProblem gp =
              generateRandomProblem(configFor(tasks, seed));
          Verdict v;
          ConstraintGraph g = gp.problem.buildGraph();
          LongestPathEngine engine(g);
          TimingScheduler ts(gp.problem);
          SchedulerStats stats;
          v.timingOk = ts.run(g, engine, stats).ok;

          PowerAwareOptions options;
          options.trials = 1;
          const ScheduleResult r =
              PowerAwareScheduler(gp.problem, options).schedule();
          if (r.ok()) {
            v.pipelineOk = true;
            v.valid =
                ScheduleValidator(gp.problem).validate(*r.schedule).valid();
          }
          return v;
        });
    int timingOk = 0, maxOk = 0, validOk = 0;
    for (const Verdict& v : verdicts) {
      timingOk += v.timingOk ? 1 : 0;
      maxOk += v.pipelineOk ? 1 : 0;
      validOk += v.valid ? 1 : 0;
    }
    std::printf("%8zu %9d/%d %11d/%d %11d/%d\n", tasks, timingOk, kSeeds,
                maxOk, kSeeds, validOk, kSeeds);
  }
  std::printf("\n");
}

void BM_LongestPath(benchmark::State& state) {
  const GeneratedProblem gp = generateRandomProblem(
      configFor(static_cast<std::size_t>(state.range(0)), 7));
  ConstraintGraph g = gp.problem.buildGraph();
  LongestPathEngine engine(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.computeFull(kAnchorTask));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LongestPath)->Range(16, 1024)->Complexity();

void BM_TimingScheduler(benchmark::State& state) {
  const GeneratedProblem gp = generateRandomProblem(
      configFor(static_cast<std::size_t>(state.range(0)), 7));
  std::uint64_t lpRuns = 0;
  for (auto _ : state) {
    ConstraintGraph g = gp.problem.buildGraph();
    LongestPathEngine engine(g);
    TimingScheduler ts(gp.problem);
    SchedulerStats stats;
    benchmark::DoNotOptimize(ts.run(g, engine, stats));
    lpRuns += stats.longestPathRuns;
  }
  state.counters["lp_runs"] = benchmark::Counter(
      static_cast<double>(lpRuns), benchmark::Counter::kAvgIterations);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TimingScheduler)->Range(16, 512)->Complexity()
    ->Unit(benchmark::kMicrosecond);

// Timing searches that backtrack about 100k times, nearly every candidate
// an infeasible serialization the engine must reject: {48 tasks, 2
// resources, seed 59} finds an order after 98,820 backtracks, {32, 3, 8}
// exhausts the 100k budget. lp_runs and backtracks pin both searches.
void BM_TimingSearchBacktrackHeavy(benchmark::State& state) {
  GeneratorConfig cfg;
  cfg.numTasks = static_cast<std::size_t>(state.range(0));
  cfg.numResources = static_cast<std::size_t>(state.range(1));
  cfg.seed = static_cast<std::uint32_t>(state.range(2));
  const GeneratedProblem gp = generateRandomProblem(cfg);
  std::uint64_t lpRuns = 0;
  std::uint64_t backtracks = 0;
  for (auto _ : state) {
    ConstraintGraph g = gp.problem.buildGraph();
    LongestPathEngine engine(g);
    TimingScheduler ts(gp.problem);
    SchedulerStats stats;
    benchmark::DoNotOptimize(ts.run(g, engine, stats));
    lpRuns += stats.longestPathRuns;
    backtracks += stats.backtracks;
  }
  state.counters["lp_runs"] = benchmark::Counter(
      static_cast<double>(lpRuns), benchmark::Counter::kAvgIterations);
  state.counters["backtracks"] = benchmark::Counter(
      static_cast<double>(backtracks), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TimingSearchBacktrackHeavy)
    ->Args({48, 2, 59})
    ->Args({32, 3, 8})
    ->Unit(benchmark::kMillisecond);

void BM_FullPipeline(benchmark::State& state) {
  const GeneratedProblem gp = generateRandomProblem(
      configFor(static_cast<std::size_t>(state.range(0)), 7));
  PowerAwareOptions options;
  options.trials = 1;
  std::uint64_t lpRuns = 0;
  for (auto _ : state) {
    const ScheduleResult r =
        PowerAwareScheduler(gp.problem, options).schedule();
    lpRuns += r.stats.longestPathRuns;
    benchmark::DoNotOptimize(r.status);
  }
  state.counters["lp_runs"] = benchmark::Counter(
      static_cast<double>(lpRuns), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FullPipeline)->Range(16, 256)->Unit(benchmark::kMillisecond);

void BM_Validator(benchmark::State& state) {
  const GeneratedProblem gp = generateRandomProblem(
      configFor(static_cast<std::size_t>(state.range(0)), 7));
  const Schedule witness(&gp.problem, gp.witnessStarts);
  const ScheduleValidator validator(gp.problem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(validator.validate(witness));
  }
}
BENCHMARK(BM_Validator)->Range(16, 1024);

}  // namespace

int main(int argc, char** argv) {
  printQualitySummary();
  return paws::bench::runBenchMain("scalability", argc, argv);
}
