// Ablation of the paper's heuristic choices (Sections 5.2-5.3):
//
//   A1. Victim selection in max-power scheduling: slack-ordered (paper's
//       case 1) vs random (the paper's zero-slack fallback used always).
//   A2. Min-power scan order and slot heuristics, and the value of
//       multi-pass scanning with rotated heuristics.
//   A3. The greedy power-capped list scheduler as a "without the paper"
//       comparison on the same instances.
//
// Metrics: success rate, mean energy cost and mean finish time on seeded
// feasible-by-construction instances, plus the rover typical case.
// google-benchmark timings follow the quality tables.
#include <benchmark/benchmark.h>

#include "bench_report.hpp"

#include <cstdio>
#include <vector>

#include "analysis/battery_stress.hpp"
#include "gen/random_problem.hpp"
#include "model/paper_example.hpp"
#include "obs/metrics.hpp"
#include "rover/rover_model.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/max_power_scheduler.hpp"
#include "sched/min_power_scheduler.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "validate/validator.hpp"

using namespace paws;

namespace {

constexpr std::uint32_t kSeeds = 12;

GeneratorConfig ablationConfig(std::uint32_t seed) {
  GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.numTasks = 24;
  cfg.numResources = 5;
  cfg.pmaxHeadroomMw = 500;
  return cfg;
}

/// The paper's pipeline, one trial: the seeds and heuristics in `opt`
/// exactly as given.
ScheduleResult runPipeline(const Problem& p, PowerAwareOptions opt = {}) {
  opt.trials = 1;
  return PowerAwareScheduler(p, opt).schedule();
}

struct Aggregate {
  int ok = 0;
  double sumEc = 0;
  double sumTau = 0;
  double sumRho = 0;

  void add(const Problem& p, const Schedule& s) {
    ++ok;
    sumEc += s.energyCost(p.minPower()).joules();
    sumTau += static_cast<double>(s.finish().ticks());
    sumRho += s.utilization(p.minPower());
  }
  void print(const char* label) const {
    if (ok == 0) {
      std::printf("  %-34s %4d/%-3u %10s %8s %7s\n", label, ok, kSeeds, "-",
                  "-", "-");
      return;
    }
    std::printf("  %-34s %4d/%-3u %10.1f %8.1f %6.1f%%\n", label, ok, kSeeds,
                sumEc / ok, sumTau / ok, 100.0 * sumRho / ok);
  }
};

void ablateVictimOrder() {
  std::printf("--- A1: max-power victim selection (random instances) ---\n");
  std::printf("  %-34s %8s %10s %8s %7s\n", "strategy", "solved", "mean Ec(J)",
              "mean tau", "rho");
  for (const VictimOrder order : {VictimOrder::kBySlack, VictimOrder::kRandom}) {
    Aggregate agg;
    for (std::uint32_t seed = 1; seed <= kSeeds; ++seed) {
      const GeneratedProblem gp = generateRandomProblem(ablationConfig(seed));
      PowerAwareOptions opt;
      opt.maxPower.victimOrder = order;
      opt.maxPower.randomSeed = seed;
      const ScheduleResult r = runPipeline(gp.problem, opt);
      if (r.ok() &&
          ScheduleValidator(gp.problem).validate(*r.schedule).valid()) {
        agg.add(gp.problem, *r.schedule);
      }
    }
    agg.print(order == VictimOrder::kBySlack ? "slack-ordered (paper)"
                                             : "random victim");
  }
  std::printf("\n");
}

void ablateMinPowerHeuristics() {
  std::printf("--- A2: min-power scan/slot heuristics (random instances) "
              "---\n");
  std::printf("  %-34s %8s %10s %8s %7s\n", "strategy", "solved", "mean Ec(J)",
              "mean tau", "rho");
  struct Variant {
    const char* label;
    ScanOrder scan;
    SlotHeuristic slot;
    bool rotate;
    std::uint32_t passes;
  };
  const Variant variants[] = {
      {"forward/start-at-gap, 1 pass", ScanOrder::kForward,
       SlotHeuristic::kStartAtGap, false, 1},
      {"backward/finish-at-end, 1 pass", ScanOrder::kBackward,
       SlotHeuristic::kFinishAtGapEnd, false, 1},
      {"random/random, 1 pass", ScanOrder::kRandom, SlotHeuristic::kRandom,
       false, 1},
      {"rotating heuristics, 8 passes", ScanOrder::kForward,
       SlotHeuristic::kStartAtGap, true, 8},
  };
  for (const Variant& v : variants) {
    Aggregate agg;
    for (std::uint32_t seed = 1; seed <= kSeeds; ++seed) {
      const GeneratedProblem gp = generateRandomProblem(ablationConfig(seed));
      PowerAwareOptions opt;
      opt.minPower.scanOrder = v.scan;
      opt.minPower.slotHeuristic = v.slot;
      opt.minPower.rotateHeuristics = v.rotate;
      opt.minPower.maxPasses = v.passes;
      opt.minPower.randomSeed = seed;
      const ScheduleResult r = runPipeline(gp.problem, opt);
      if (r.ok() &&
          ScheduleValidator(gp.problem).validate(*r.schedule).valid()) {
        agg.add(gp.problem, *r.schedule);
      }
    }
    agg.print(v.label);
  }
  std::printf("\n");
}

void ablateAgainstListScheduler() {
  std::printf("--- A3: three-stage pipeline vs greedy power-capped list "
              "scheduler ---\n");
  std::printf("  %-34s %8s %10s %8s %7s\n", "scheduler", "valid", "mean Ec(J)",
              "mean tau", "rho");
  Aggregate pipelineAgg, listAgg;
  for (std::uint32_t seed = 1; seed <= kSeeds; ++seed) {
    const GeneratedProblem gp = generateRandomProblem(ablationConfig(seed));
    const ScheduleResult rp = runPipeline(gp.problem);
    if (rp.ok() &&
        ScheduleValidator(gp.problem).validate(*rp.schedule).valid()) {
      pipelineAgg.add(gp.problem, *rp.schedule);
    }
    ListScheduler list(gp.problem);
    const ScheduleResult rl = list.schedule();
    if (rl.ok() &&
        ScheduleValidator(gp.problem).validate(*rl.schedule).valid()) {
      listAgg.add(gp.problem, *rl.schedule);
    }
  }
  pipelineAgg.print("power-aware pipeline (paper)");
  listAgg.print("greedy list scheduler");
  std::printf("  (the greedy baseline loses instances to max-separation "
              "violations it cannot see,\n   and wastes free power it has "
              "no notion of)\n\n");
}

void ablateCandidateOrder() {
  std::printf("--- A5: timing-scheduler candidate order (random instances) "
              "---\n");
  std::printf("  %-34s %8s %12s %12s\n", "order", "solved", "mean tau",
              "mean backtracks");
  struct Variant {
    const char* label;
    CandidateOrder order;
  };
  for (const Variant v :
       {Variant{"by longest path (default)", CandidateOrder::kByLongestPath},
        Variant{"by declaration index", CandidateOrder::kByIndex},
        Variant{"random", CandidateOrder::kRandom}}) {
    int solved = 0;
    double sumTau = 0, sumBacktracks = 0;
    for (std::uint32_t seed = 1; seed <= kSeeds; ++seed) {
      const GeneratedProblem gp = generateRandomProblem(ablationConfig(seed));
      PowerAwareOptions opt;
      opt.maxPower.timing.candidateOrder = v.order;
      opt.maxPower.timing.randomSeed = seed;
      const ScheduleResult r = runPipeline(gp.problem, opt);
      if (!r.ok()) continue;
      ++solved;
      sumTau += static_cast<double>(r.schedule->finish().ticks());
      sumBacktracks += static_cast<double>(r.stats.backtracks);
    }
    if (solved == 0) {
      std::printf("  %-34s %4d/%-3u\n", v.label, solved, kSeeds);
      continue;
    }
    std::printf("  %-34s %4d/%-3u %12.1f %12.1f\n", v.label, solved, kSeeds,
                sumTau / solved, sumBacktracks / solved);
  }
  std::printf("\n");
}

void ablateJitterControl() {
  std::printf("--- A4: min-power stage as battery-stress control (paper's "
              "jitter motivation) ---\n");
  std::printf("  %-28s %10s %10s %10s %14s\n", "instance / stage", "Ec(J)",
              "peak draw", "jitter", "I^2t proxy");
  const auto report = [](const char* label, const Problem& p,
                         const Schedule& s) {
    const BatteryStressReport r =
        analyzeBatteryStress(s.powerProfile(), p.minPower());
    std::printf("  %-28s %10.1f %9.1fW %9.1fW %14llu\n", label,
                r.drawnEnergy.joules(), r.peakDraw.watts(),
                r.jitter.watts(),
                static_cast<unsigned long long>(r.squaredDrawIntegral));
  };

  {
    const Problem p = makePaperExampleProblem();
    const ScheduleResult before = MaxPowerScheduler(p).schedule();
    if (before.ok()) {
      const ScheduleResult after = MinPowerScheduler(p).improve(
          *before.schedule, before.stats);
      report("paper example / max-only", p, *before.schedule);
      if (after.ok()) report("paper example / +min-power", p, *after.schedule);
    }
  }
  for (std::uint32_t seed : {3u, 7u}) {
    const GeneratedProblem gp = generateRandomProblem(ablationConfig(seed));
    const ScheduleResult before = MaxPowerScheduler(gp.problem).schedule();
    if (!before.ok()) continue;
    const ScheduleResult after = MinPowerScheduler(gp.problem).improve(
        *before.schedule, before.stats);
    char label[64];
    std::snprintf(label, sizeof label, "random seed %u / max-only", seed);
    report(label, gp.problem, *before.schedule);
    std::snprintf(label, sizeof label, "random seed %u / +min-power", seed);
    if (after.ok()) report(label, gp.problem, *after.schedule);
  }
  std::printf("\n");
}

void printPhaseTimings() {
  std::printf("--- A6: where the wall-clock goes (pipeline phases, %u "
              "random instances) ---\n",
              kSeeds);
  obs::MetricsRegistry metrics;
  for (std::uint32_t seed = 1; seed <= kSeeds; ++seed) {
    const GeneratedProblem gp = generateRandomProblem(ablationConfig(seed));
    // The two stages run directly, so the table holds only the stages'
    // own metrics (the pipeline would add its search.* totals).
    MaxPowerOptions maxOpt;
    maxOpt.obs.metrics = &metrics;
    const ScheduleResult valid =
        MaxPowerScheduler(gp.problem, maxOpt).schedule();
    if (!valid.ok()) continue;
    MinPowerOptions minOpt;
    minOpt.obs.metrics = &metrics;
    (void)MinPowerScheduler(gp.problem, minOpt).improve(*valid.schedule);
  }
  std::printf("%s\n", metrics.renderTable().c_str());
}

void BM_PipelineSlackVictims(benchmark::State& state) {
  const GeneratedProblem gp = generateRandomProblem(ablationConfig(5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runPipeline(gp.problem));
  }
}
BENCHMARK(BM_PipelineSlackVictims)->Unit(benchmark::kMillisecond);

void BM_PipelineRandomVictims(benchmark::State& state) {
  const GeneratedProblem gp = generateRandomProblem(ablationConfig(5));
  PowerAwareOptions opt;
  opt.maxPower.victimOrder = VictimOrder::kRandom;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runPipeline(gp.problem, opt));
  }
}
BENCHMARK(BM_PipelineRandomVictims)->Unit(benchmark::kMillisecond);

void BM_ListScheduler(benchmark::State& state) {
  const GeneratedProblem gp = generateRandomProblem(ablationConfig(5));
  for (auto _ : state) {
    ListScheduler list(gp.problem);
    benchmark::DoNotOptimize(list.schedule());
  }
}
BENCHMARK(BM_ListScheduler);

}  // namespace

int main(int argc, char** argv) {
  ablateVictimOrder();
  ablateMinPowerHeuristics();
  ablateAgainstListScheduler();
  ablateJitterControl();
  ablateCandidateOrder();
  printPhaseTimings();
  return paws::bench::runBenchMain("ablation", argc, argv);
}
