// Second application domain: an Earth-observation micro-satellite orbit
// segment (examples/data/satellite.paws). Demonstrates the analysis
// toolkit around the scheduler:
//   * feasible start windows [EST, LST] per task (the drag handles a GUI
//     would show),
//   * slack annotation in the Gantt time view,
//   * battery-stress comparison between the max-power-only schedule and
//     the full pipeline (the paper's jitter-control motivation),
//   * robustness range: the minimal budget the schedule remains valid for.
#include <iomanip>
#include <iostream>

#include "analysis/analysis.hpp"
#include "analysis/battery_stress.hpp"
#include "gantt/ascii_gantt.hpp"
#include "graph/longest_path.hpp"
#include "io/parser.hpp"
#include "sched/max_power_scheduler.hpp"
#include "sched/min_power_scheduler.hpp"
#include "sched/slack.hpp"
#include "sched/windows.hpp"
#include "validate/validator.hpp"

using namespace paws;

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "examples/data/satellite.paws";
  const io::ParseResult parsed = io::parseProblemFile(path);
  if (!parsed.ok()) {
    for (const io::ParseError& e : parsed.errors) {
      std::cerr << io::format(e) << "\n";
    }
    return 1;
  }
  const Problem& p = *parsed.problem;

  // Pre-scheduling view: global start windows under a 60-tick horizon.
  const ConstraintGraph userGraph = p.buildGraph();
  const auto windows = computeStartWindows(p, userGraph, Time(60));
  std::cout << "start windows (horizon 60):\n";
  for (TaskId v : p.taskIds()) {
    const StartWindow& w = windows[v.index()];
    std::cout << "  " << std::setw(10) << p.task(v).name << "  ["
              << w.earliest << ", " << w.latest << "]"
              << (w.feasible() ? "" : "  INFEASIBLE") << "\n";
  }

  // Stage comparison: hard constraints only, then the min-power polish.
  MaxPowerScheduler maxOnly(p);
  const ScheduleResult valid = maxOnly.schedule();
  if (!valid.ok()) {
    std::cerr << "scheduling failed: " << valid.message << "\n";
    return 1;
  }
  MinPowerScheduler minStage(p);
  const ScheduleResult polished =
      minStage.improve(*valid.schedule, valid.stats);

  const auto stress = [&p](const Schedule& s) {
    return analyzeBatteryStress(s.powerProfile(), p.minPower());
  };
  const BatteryStressReport before = stress(*valid.schedule);
  const BatteryStressReport after = stress(*polished.schedule);
  std::cout << "\nbattery draw   max-power-only    +min-power\n";
  std::cout << "  energy     " << std::setw(10) << before.drawnEnergy
            << "     " << std::setw(10) << after.drawnEnergy << "\n";
  std::cout << "  peak       " << std::setw(10) << before.peakDraw << "     "
            << std::setw(10) << after.peakDraw << "\n";
  std::cout << "  jitter     " << std::setw(10) << before.jitter << "     "
            << std::setw(10) << after.jitter << "\n";

  const Schedule& s = *polished.schedule;
  std::cout << "\nfinal: tau=" << s.finish() << "  Ec="
            << s.energyCost(p.minPower()) << "  rho="
            << 100.0 * s.utilization(p.minPower()) << "%  valid-for Pmax>="
            << ScheduleAnalysis::minimalValidPmax(s) << "\n\n";

  // Gantt with slack annotation ('~' marks where a bin may still slip).
  AsciiGanttOptions opt;
  opt.slacks = computeSlacks(scheduleGraph(s), s.starts());
  std::cout << renderGantt(s, opt);

  return ScheduleValidator(p).validate(s).valid() ? 0 : 1;
}
