// Reproduces the running example of Figs. 2, 5 and 7: the 9-task,
// 3-resource constraint graph of Fig. 1 pushed through the three scheduling
// stages, printing the power-aware Gantt chart after each stage.
//
// Paper narrative checked here:
//   Fig. 2 — a time-valid schedule with ONE power spike and several gaps;
//   Fig. 5 — max-power scheduling removes the spike by delaying h and f;
//   Fig. 7 — min-power scheduling raises utilization at the same finish
//            time; the final schedule stays valid for any Pmax >= its peak
//            and Pmin <= the floor it sustains.
//
// Then google-benchmark times each stage separately.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_report.hpp"
#include "gantt/ascii_gantt.hpp"
#include "graph/longest_path.hpp"
#include "model/paper_example.hpp"
#include "obs/metrics.hpp"
#include "sched/max_power_scheduler.hpp"
#include "sched/min_power_scheduler.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "sched/timing_scheduler.hpp"

using namespace paws;

namespace {

void describe(const char* figure, const Problem& p, const Schedule& s) {
  std::printf("--- %s ---\n", figure);
  std::printf("tau=%lld  Ec(Pmin)=%.1fJ  rho=%.1f%%  spikes=%zu  gaps=%zu\n",
              static_cast<long long>(s.finish().ticks()),
              s.energyCost(p.minPower()).joules(),
              100.0 * s.utilization(p.minPower()),
              s.powerProfile().spikes(p.maxPower()).size(),
              s.powerProfile().gaps(p.minPower()).size());
  std::printf("%s\n", renderPowerView(s).c_str());
}

void printFigures() {
  const Problem p = makePaperExampleProblem();

  // Metrics across all three stages: the longest_path.* counters quantify
  // how much work the rollback-aware engine saves (restores replace full
  // Bellman–Ford reruns after every backtrack / rejected move), and the
  // profile.* counters do the same for the incremental power profile
  // (delta updates replace event-sort rebuilds per evaluation).
  obs::MetricsRegistry metrics;
  obs::ObsContext obsCtx;
  obsCtx.metrics = &metrics;

  ConstraintGraph g = p.buildGraph();
  LongestPathEngine engine(g);
  engine.setObs(obsCtx);
  TimingOptions timingOptions;
  timingOptions.obs = obsCtx;
  TimingScheduler timing(p, timingOptions);
  SchedulerStats stats;
  const auto t = timing.run(g, engine, stats);
  if (!t.ok) {
    std::printf("timing failed: %s\n", t.message.c_str());
    return;
  }
  describe("Fig. 2: time-valid schedule (1 spike expected)", p,
           Schedule(&p, t.starts));

  MaxPowerOptions maxOptions;
  maxOptions.obs = obsCtx;
  MaxPowerScheduler maxPower(p, maxOptions);
  const ScheduleResult valid = maxPower.schedule();
  if (!valid.ok()) {
    std::printf("max-power failed: %s\n", valid.message.c_str());
    return;
  }
  describe("Fig. 5: after max-power scheduling (h and f delayed)", p,
           *valid.schedule);
  std::printf("delayed: h@%lld (was 10), f@%lld (was 10)\n\n",
              static_cast<long long>(
                  valid.schedule->start(*p.findTask("h")).ticks()),
              static_cast<long long>(
                  valid.schedule->start(*p.findTask("f")).ticks()));

  MinPowerOptions minOptions;
  minOptions.obs = obsCtx;
  MinPowerScheduler minPower(p, minOptions);
  const ScheduleResult improved =
      minPower.improve(*valid.schedule, valid.stats);
  describe("Fig. 7: after min-power scheduling (g fills the gap)", p,
           *improved.schedule);

  std::printf("longest-path engine over all three stages: %llu runs "
              "(%llu full, %llu incremental), %llu rollbacks revived, "
              "%llu fell back to full recompute\n\n",
              static_cast<unsigned long long>(
                  metrics.counter("longest_path.runs")),
              static_cast<unsigned long long>(
                  metrics.counter("longest_path.full_runs")),
              static_cast<unsigned long long>(
                  metrics.counter("longest_path.incremental_runs")),
              static_cast<unsigned long long>(
                  metrics.counter("longest_path.restores")),
              static_cast<unsigned long long>(
                  metrics.counter("longest_path.restore_fallbacks")));
  std::printf("profile engine over the power stages: %llu rebuilds, "
              "%llu incremental updates, %llu checkpoint restores\n\n",
              static_cast<unsigned long long>(
                  metrics.counter("profile.rebuilds")),
              static_cast<unsigned long long>(
                  metrics.counter("profile.incremental_updates")),
              static_cast<unsigned long long>(
                  metrics.counter("profile.restores")));
}

void BM_TimingStage(benchmark::State& state) {
  const Problem p = makePaperExampleProblem();
  for (auto _ : state) {
    ConstraintGraph g = p.buildGraph();
    LongestPathEngine engine(g);
    TimingScheduler timing(p);
    SchedulerStats stats;
    benchmark::DoNotOptimize(timing.run(g, engine, stats));
  }
}
BENCHMARK(BM_TimingStage);

void BM_MaxPowerStage(benchmark::State& state) {
  const Problem p = makePaperExampleProblem();
  for (auto _ : state) {
    MaxPowerScheduler scheduler(p);
    benchmark::DoNotOptimize(scheduler.schedule());
  }
}
BENCHMARK(BM_MaxPowerStage);

void BM_FullPipeline(benchmark::State& state) {
  const Problem p = makePaperExampleProblem();
  PowerAwareOptions options;
  options.trials = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PowerAwareScheduler(p, options).schedule());
  }
}
BENCHMARK(BM_FullPipeline);

}  // namespace

int main(int argc, char** argv) {
  printFigures();
  return paws::bench::runBenchMain("fig2_5_7", argc, argv);
}
