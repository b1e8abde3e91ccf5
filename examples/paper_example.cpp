// The paper's running example (Figs. 1, 2, 5 and 7): nine tasks a..i on
// three resources, Pmax = 16 W, Pmin = 14 W. Prints the schedule and the
// power view after each pipeline stage, plus the constraint graph in DOT.
#include <iostream>

#include "gantt/ascii_gantt.hpp"
#include "graph/dot.hpp"
#include "graph/longest_path.hpp"
#include "model/paper_example.hpp"
#include "sched/max_power_scheduler.hpp"
#include "sched/min_power_scheduler.hpp"
#include "sched/timing_scheduler.hpp"

using namespace paws;

namespace {

void show(const char* stage, const Problem& p, const Schedule& s) {
  std::cout << "--- " << stage << " ---\n";
  std::cout << "tau=" << s.finish() << "  Ec(Pmin)=" << s.energyCost(p.minPower())
            << "  rho=" << 100.0 * s.utilization(p.minPower()) << "%"
            << "  spikes=" << s.powerProfile().spikes(p.maxPower()).size()
            << "  gaps=" << s.powerProfile().gaps(p.minPower()).size()
            << "\n";
  for (TaskId v : p.taskIds()) {
    std::cout << p.task(v).name << "@" << s.start(v) << " ";
  }
  std::cout << "\n" << renderGantt(s) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Problem p = makePaperExampleProblem();

  // Fig. 1: the constraint graph (pass --dot to dump Graphviz).
  if (argc > 1 && std::string(argv[1]) == "--dot") {
    DotOptions opt;
    opt.vertexLabels.resize(p.numVertices());
    for (TaskId v : p.taskIds()) opt.vertexLabels[v.index()] = p.task(v).name;
    std::cout << toDot(p.buildGraph(), opt);
    return 0;
  }

  // Fig. 2: a time-valid schedule (one spike, several gaps).
  ConstraintGraph g = p.buildGraph();
  LongestPathEngine engine(g);
  TimingScheduler timing(p);
  SchedulerStats stats;
  const auto t = timing.run(g, engine, stats);
  if (!t.ok) {
    std::cerr << "timing failed: " << t.message << "\n";
    return 1;
  }
  show("Fig. 2: time-valid schedule", p, Schedule(&p, t.starts));

  // Fig. 5: after max-power scheduling (h and f delayed).
  MaxPowerScheduler maxPower(p);
  const ScheduleResult valid = maxPower.schedule();
  if (!valid.ok()) {
    std::cerr << "max-power failed: " << valid.message << "\n";
    return 1;
  }
  show("Fig. 5: valid schedule after max-power scheduling", p,
       *valid.schedule);

  // Fig. 7: after min-power scheduling (g fills the gap at t=10).
  MinPowerScheduler minPower(p);
  const ScheduleResult improved =
      minPower.improve(*valid.schedule, valid.stats);
  show("Fig. 7: improved schedule after min-power scheduling", p,
       *improved.schedule);
  return 0;
}
